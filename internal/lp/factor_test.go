package lp

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"prete/internal/stats"
)

// randomLP builds a sparse LP that is feasible by construction around a
// random point, with a mix of operators, boxed and fixed variables — large
// enough that a solve refactorises several times.
func randomLP(rng *stats.RNG, m, n int) *Problem {
	p := NewProblem()
	x0 := make([]float64, n)
	for j := range x0 {
		p.AddVar(math.Floor(rng.Float64()*8) - 1)
		x0[j] = math.Floor(rng.Float64() * 4)
		switch rng.Intn(4) {
		case 0:
			p.upper[j] = x0[j] + math.Floor(rng.Float64()*3)
		case 1:
			p.lower[j], p.upper[j] = x0[j], x0[j]
		}
	}
	for i := 0; i < m; i++ {
		var terms []Term
		dot := 0.0
		for k := 0; k < 4; k++ {
			v, c := rng.Intn(n), math.Floor(rng.Float64()*7)-3
			terms = append(terms, Term{v, c})
			dot += c * x0[v]
		}
		op := Op(rng.Intn(3))
		switch op {
		case LE:
			dot += math.Floor(rng.Float64() * 3)
		case GE:
			dot -= math.Floor(rng.Float64() * 3)
		}
		p.AddConstraint(terms, op, dot)
	}
	return p
}

// feasible reports whether x satisfies p's rows and bounds within 1e-6.
func feasible(p *Problem, x []float64) bool {
	for j, v := range x {
		if v < p.lower[j]-1e-6 || v > p.upper[j]+1e-6 {
			return false
		}
	}
	for _, c := range p.constraints {
		act := 0.0
		for _, t := range c.Terms {
			act += t.Coeff * x[t.Var]
		}
		if (c.Op != GE && act > c.RHS+1e-6) || (c.Op != LE && act < c.RHS-1e-6) {
			return false
		}
	}
	return true
}

// TestSimplexAtScale takes FuzzSimplex's checks to LPs beyond the fuzzer's
// reach: hundreds of pivots, so the eta file, the periodic refactorisation
// and the bound-flipping ratio test all run. Each verdict is checked on its
// own terms — Optimal by its certificate, Unbounded by re-solving inside a
// box and finding the optimum pressed against it, Infeasible never (the LPs
// are feasible by construction). The tableau is only a witness here: at
// this size, with dependent rows and fixed variables, it sometimes stalls
// into its iteration limit, returns a point that violates the constraints,
// or stops short of an unbounded ray and calls it Optimal. So a feasible
// tableau point must never beat a certified optimum, and the two must
// agree on most instances.
func TestSimplexAtScale(t *testing.T) {
	rng := stats.NewRNG(20)
	pivots, compared, agreed := 0, 0, 0
	for trial := 0; trial < 40; trial++ {
		p := randomLP(rng, 80+rng.Intn(60), 60+rng.Intn(80))
		sol := certify(t, p, p.Solve())
		pivots = max(pivots, sol.Pivots)
		switch sol.Status {
		case Optimal:
		case Unbounded:
			boxed := *p
			boxed.upper = slices.Clone(p.upper)
			for j, u := range boxed.upper {
				boxed.upper[j] = math.Min(u, 1e6)
			}
			if in := certify(t, &boxed, boxed.Solve()); in.Status != Optimal || in.Objective > -1e5 {
				t.Fatalf("trial %d: unbounded, but inside a 1e6 box: %v, objective %v", trial, in.Status, in.Objective)
			}
			continue
		default:
			t.Fatalf("trial %d: %v on an LP feasible by construction", trial, sol.Status)
		}
		want := tableauSolve(p)
		if want.Status != Optimal || !feasible(p, want.X) {
			continue
		}
		compared++
		switch diff := sol.Objective - want.Objective; {
		case diff > 1e-7*(1+math.Abs(want.Objective)):
			t.Fatalf("trial %d: certified optimum %v, tableau found a feasible %v", trial, sol.Objective, want.Objective)
		case diff > -1e-7*(1+math.Abs(want.Objective)):
			agreed++
		}
	}
	t.Logf("longest solve %d pivots; tableau agreed on %d of %d comparable optima", pivots, agreed, compared)
	if pivots <= refactorEvery || compared < 10 || 4*agreed < 3*compared {
		t.Fatal("instances too easy, or the two solvers disagree on more than a quarter of them")
	}
}

// residual returns max |B x - a| for basis position-indexed x, a given by row.
func residual(s *solver, x, a []float64) float64 {
	got := make([]float64, len(s.basic))
	for pos, v := range s.basic {
		if int(v) >= s.n {
			got[int(v)-s.n] += x[pos]
			continue
		}
		for k := s.colPtr[v]; k < s.colPtr[v+1]; k++ {
			got[s.colRow[k]] += x[pos] * s.colVal[k]
		}
	}
	worst := 0.0
	for i := range got {
		worst = math.Max(worst, math.Abs(got[i]-a[i]))
	}
	return worst
}

// denseSparse returns v with every index listed, the form the dense
// callers (refactor, computeDuals) pass.
func denseSparse(v []float64) *sparse {
	d := newSparse(len(v))
	d.dense()
	copy(d.val, v)
	return &d
}

// TestFactorSolves checks ftran and btran against the basis matrix itself,
// on a fresh factorisation and behind each of 1 to 10 etas, and checks that
// a list-driven solve of a 1-5-entry input returns what the same solve
// returns with every index listed: the same bits on every non-zero, each
// non-zero listed. A zero may differ in sign; every user of a list-driven
// result skips zeros.
func TestFactorSolves(t *testing.T) {
	rng := stats.NewRNG(5)
	p := randomLP(rng, 40, 60)
	s := new(solver).load(p, nil)
	m := len(s.basic)
	// A mixed basis: every third position takes a structural column.
	for pos := 0; pos < m; pos += 3 {
		s.pos[s.basic[pos]] = -1
		s.enter(int32(pos), int32(pos))
	}
	s.f.build(s)
	check := func(stage string) {
		t.Helper()
		a := make([]float64, m)
		for i := range a {
			a[i] = rng.Float64() - 0.5
		}
		x := newSparse(m)
		s.f.ftran(denseSparse(a), &x)
		if r := residual(s, x.val, a); r > 1e-9 {
			t.Fatalf("%s: ftran residual %g", stage, r)
		}
		// y B = c  <=>  y . (B x) = c . x for the x just solved: y . a = c . x.
		c := make([]float64, m)
		for i := range c {
			c[i] = rng.Float64() - 0.5
		}
		cx := 0.0
		for i := range c {
			cx += c[i] * x.val[i]
		}
		y := newSparse(m)
		s.f.btran(denseSparse(c), &y)
		ya := 0.0
		for i := range y.val {
			ya += y.val[i] * a[i]
		}
		if math.Abs(ya-cx) > 1e-9 {
			t.Fatalf("%s: btran: y.a = %v, c.x = %v", stage, ya, cx)
		}
		for trial := 0; trial < 20; trial++ {
			in := newSparse(m)
			for k := 1 + rng.Intn(5); k > 0; k-- {
				in.set(int32(rng.Intn(m)), rng.Float64()-0.5)
			}
			for _, solve := range []struct {
				name string
				run  func(in, out *sparse)
			}{{"ftran", s.f.ftran}, {"btran", s.f.btran}} {
				want := newSparse(m)
				solve.run(denseSparse(in.val), &want)
				sparseIn := newSparse(m)
				for _, i := range in.idx {
					sparseIn.set(i, in.val[i])
				}
				got := newSparse(m)
				solve.run(&sparseIn, &got)
				if len(sparseIn.idx) != 0 {
					t.Fatalf("%s: %s left its input listed", stage, solve.name)
				}
				for i, w := range want.val {
					g := got.val[i]
					if math.Float64bits(g) != math.Float64bits(w) && (g != 0 || w != 0) {
						t.Fatalf("%s: %s of %v at %d: list-driven %v, dense %v", stage, solve.name, in.idx, i, g, w)
					}
					if w != 0 && !got.in[i] {
						t.Fatalf("%s: %s of %v: non-zero %d not listed", stage, solve.name, in.idx, i)
					}
				}
			}
		}
	}
	check("fresh")
	// Replace basic columns one at a time, as a pivot does.
	// Structural columns from m on are nonbasic (only 0..m-1 by threes are).
	for q := int32(m); s.f.etas() < 10 && int(q) < s.n; q++ {
		s.ftranColumn(q)
		r := int32(-1)
		for _, i := range s.col.idx {
			if math.Abs(s.col.val[i]) > 0.1 && int(s.basic[i]) >= s.n {
				r = i
				break
			}
		}
		if r < 0 {
			continue
		}
		s.pos[s.basic[r]] = -1
		s.enter(r, q)
		s.f.push(r, &s.col)
		check(fmt.Sprintf("behind %d etas", s.f.etas()))
	}
	if s.f.etas() < 10 {
		t.Fatalf("%d etas pushed, want 10", s.f.etas())
	}
}

// TestFactorRepairsSingularBasis hands build a basis holding two identical
// columns: it must swap one for a slack and leave a basis it can solve with.
func TestFactorRepairsSingularBasis(t *testing.T) {
	p := NewProblem()
	a, b, c := p.AddVar(0), p.AddVar(0), p.AddVar(0)
	p.AddConstraint([]Term{{a, 1}, {b, 1}, {c, 2}}, LE, 4)
	p.AddConstraint([]Term{{a, 2}, {b, 2}, {c, 1}}, LE, 5)
	p.AddConstraint([]Term{{c, 1}}, LE, 6)
	s := new(solver).load(p, nil)
	for pos, v := range []int32{int32(a), int32(b), int32(c)} {
		s.pos[s.basic[pos]] = -1
		s.enter(int32(pos), v)
	}
	s.x[b] = 3 // the evicted twin goes to its nearest bound: 0
	s.f.build(s)
	slacks := 0
	for _, v := range s.basic {
		if int(v) >= s.n {
			slacks++
		}
	}
	if slacks != 1 || (s.pos[a] >= 0) == (s.pos[b] >= 0) || s.pos[c] < 0 {
		t.Fatalf("basis after repair: %v", s.basic)
	}
	rhs := []float64{1, 2, 3}
	x := newSparse(3)
	s.f.ftran(denseSparse(rhs), &x)
	if r := residual(s, x.val, rhs); r > 1e-12 {
		t.Fatalf("repaired basis: ftran residual %g", r)
	}
}

// newSparse returns a zero vector of n indices, none listed.
func newSparse(n int) sparse {
	var v sparse
	v.resize(n)
	return v
}
