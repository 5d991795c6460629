package lp

import (
	"encoding/binary"
	"hash"
	"math"
	"reflect"
	"sync"
	"unsafe"
)

// CaptureSolves runs fn with every solve finished inside it — from any
// package, on any goroutine — appended to the returned slices. Not safe to
// nest or to run beside other solves.
func CaptureSolves(fn func()) (problems []*Problem, solutions []*Solution) {
	var mu sync.Mutex
	solveHook = func(p *Problem, sol *Solution) {
		mu.Lock()
		defer mu.Unlock()
		problems, solutions = append(problems, p), append(solutions, sol)
	}
	defer func() { solveHook = nil }()
	fn()
	return problems, solutions
}

// HashProblem folds everything a solve reads of p — objective, bounds, then
// each row's operator, right-hand side and terms in stored order — into h.
// Two Problems that hash alike pivot alike (the determinism contract), so a
// refactor of an LP builder that keeps the hash keeps the vertex.
func HashProblem(h hash.Hash64, p *Problem) {
	var buf [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f := func(v float64) { u(math.Float64bits(v)) }
	u(uint64(p.numVars))
	for v := 0; v < p.numVars; v++ {
		f(p.objective[v])
		f(p.lower[v])
		f(p.upper[v])
	}
	u(uint64(len(p.constraints)))
	for _, c := range p.constraints {
		u(uint64(c.Op))
		f(c.RHS)
		u(uint64(len(c.Terms)))
		for _, t := range c.Terms {
			u(uint64(t.Var))
			f(t.Coeff)
		}
	}
}

// RandomLP exposes randomLP (factor_test.go) to the external tests.
var RandomLP = randomLP

// HashSolution folds sol's Status, Pivots, Objective, X and Duals into h,
// each as 8 bytes little-endian, floats by their bits.
func HashSolution(h hash.Hash64, sol *Solution) {
	var buf [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	u(uint64(sol.Status))
	u(uint64(sol.Pivots))
	u(math.Float64bits(sol.Objective))
	for _, v := range sol.X {
		u(math.Float64bits(v))
	}
	for _, v := range sol.Duals {
		u(math.Float64bits(v))
	}
}

// SolveOnPoisonedWorkspace solves ps in order on one workspace, overwriting
// it with garbage before each solve: a load that leaves any array or
// counter of the last solve as it was reads garbage.
func SolveOnPoisonedWorkspace(ps ...*Problem) []*Solution {
	s := new(solver)
	sols := make([]*Solution, len(ps))
	for i, p := range ps {
		poison(reflect.ValueOf(s).Elem())
		sols[i] = s.load(p, nil).run()
	}
	return sols
}

// poison overwrites every int field of the struct v, and every element of
// every slice field out to the slice's capacity, with a value no fresh
// workspace holds, descending into struct fields (the factor, the sparse
// vectors). Pointers (the Problem, the Budget) are left alone.
func poison(v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Struct:
			poison(f)
		case reflect.Int:
			*(*int)(f.Addr().UnsafePointer()) = 1 << 20
		case reflect.Slice:
			data, n := f.UnsafePointer(), f.Cap()
			if n == 0 {
				continue
			}
			switch f.Type().Elem().Kind() {
			case reflect.Float64:
				fill(unsafe.Slice((*float64)(data), n), math.NaN())
			case reflect.Int32:
				fill(unsafe.Slice((*int32)(data), n), 1<<20)
			case reflect.Bool:
				fill(unsafe.Slice((*bool)(data), n), true)
			case reflect.Uint64:
				fill(unsafe.Slice((*uint64)(data), n), math.MaxUint64)
			default:
				panic("poison: no garbage for " + f.Type().String())
			}
		}
	}
}

func fill[T any](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}
