package lp

import (
	"math"
	"testing"
)

// fuzzReader decodes a fuzz byte stream into small LP building blocks. Every
// decoder is total — an exhausted stream yields zeros — so any input maps to
// a well-formed problem.
type fuzzReader struct {
	data []byte
	pos  int
}

func (r *fuzzReader) byte() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

// coeff maps one byte to a coefficient in [-8, 8) in steps of 1/16, keeping
// the arithmetic well inside float64's exact range.
func (r *fuzzReader) coeff() float64 { return (float64(r.byte()) - 128) / 16 }

// pos01 maps one byte to a nonnegative value in [0, 4).
func (r *fuzzReader) pos01() float64 { return float64(r.byte()) / 64 }

// FuzzSimplex drives the simplex with random LPs built around a known
// feasible point x0: every constraint's RHS is derived from a.x0 and every
// variable bound contains x0, so the problem is feasible by construction.
// The solver must never panic, never report Infeasible, and agree with the
// dense-tableau oracle (tableau_test.go) on the status and, when Optimal, on
// the objective within 1e-7; an Optimal solution must also carry a valid
// duality certificate and beat (or match) x0's objective. Unbounded is a
// legitimate outcome for minimization with free negative directions.
func FuzzSimplex(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 7, 1, 200, 50, 130, 0, 100, 9, 255, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Add([]byte{1, 1, 255, 0, 255, 255, 255})
	f.Add([]byte{5, 200, 100, 50, 25, 12, 6, 3, 1, 0, 130, 140, 150, 160, 170, 180, 190, 200, 210, 220})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		nVars := 1 + int(r.byte())%6
		nCons := int(r.byte()) % 9

		p := NewProblem()
		x0 := make([]float64, nVars)
		for i := 0; i < nVars; i++ {
			p.AddVar(r.coeff())
			x0[i] = r.pos01()
		}
		for c := 0; c < nCons; c++ {
			nTerms := 1 + int(r.byte())%nVars
			terms := make([]Term, 0, nTerms)
			dot := 0.0
			for k := 0; k < nTerms; k++ {
				v := int(r.byte()) % nVars // duplicates allowed: exercises mergeTerms
				co := r.coeff()
				terms = append(terms, Term{Var: v, Coeff: co})
				dot += co * x0[v]
			}
			op := Op(int(r.byte()) % 3)
			rhs := dot
			switch op {
			case LE:
				rhs = dot + r.pos01() // x0 satisfies a.x0 <= rhs
			case GE:
				rhs = dot - r.pos01() // x0 satisfies a.x0 >= rhs
			}
			p.AddConstraint(terms, op, rhs)
		}
		// Bounds come last in the stream, so an input without them decodes
		// to the same rows as before bounds were fuzzed.
		for i := 0; i < nVars; i++ {
			switch r.byte() % 4 {
			case 1: // loose upper bound
				p.upper[i] = x0[i] + r.pos01()
			case 2: // upper bound tight at x0 (u = 0 when x0 is)
				p.upper[i] = x0[i]
			case 3: // fixed, as branch-and-bound fixes a binary
				p.lower[i], p.upper[i] = x0[i], x0[i]
			}
		}

		sol := p.Solve()
		want := tableauSolve(p)
		if sol.Status != want.Status {
			t.Fatalf("status %v, tableau oracle %v", sol.Status, want.Status)
		}
		switch sol.Status {
		case Infeasible:
			t.Fatalf("solver claims infeasible but x0=%v is feasible by construction", x0)
		case Optimal:
		default:
			return
		}
		if math.Abs(sol.Objective-want.Objective) > 1e-7*(1+math.Abs(want.Objective)) {
			t.Fatalf("objective %v, tableau oracle %v", sol.Objective, want.Objective)
		}
		certify(t, p, sol)
		objX0 := 0.0
		for i, x := range x0 {
			objX0 += p.objective[i] * x
		}
		if sol.Objective > objX0+1e-6 {
			t.Fatalf("optimal objective %v worse than feasible point's %v", sol.Objective, objX0)
		}
	})
}
