package lp

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"prete/internal/stats"
)

func TestSimplexBasicMax(t *testing.T) {
	// max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (classic Dantzig
	// example, optimum x=2, y=6, obj=36). Minimize the negation.
	p := NewProblem()
	x := p.AddVar(-3)
	y := p.AddVar(-5)
	p.AddConstraint([]Term{{x, 1}}, LE, 4)
	p.AddConstraint([]Term{{y, 2}}, LE, 12)
	p.AddConstraint([]Term{{x, 3}, {y, 2}}, LE, 18)
	sol := certify(t, p, p.Solve())
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective+36) > 1e-6 {
		t.Fatalf("objective = %v, want -36", sol.Objective)
	}
	if math.Abs(sol.X[x]-2) > 1e-6 || math.Abs(sol.X[y]-6) > 1e-6 {
		t.Fatalf("x = %v", sol.X)
	}
}

func TestSimplexEquality(t *testing.T) {
	// min x + 2y s.t. x + y == 10, x <= 6 -> x=6, y=4, obj=14.
	p := NewProblem()
	x := p.AddVar(1)
	y := p.AddVar(2)
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, EQ, 10)
	p.AddConstraint([]Term{{x, 1}}, LE, 6)
	sol := certify(t, p, p.Solve())
	if sol.Status != Optimal || math.Abs(sol.Objective-14) > 1e-6 {
		t.Fatalf("sol = %+v", sol)
	}
}

func TestSimplexGE(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 4, x - y >= -2  -> y can help: optimum at
	// intersection? Gradient prefers x (cheaper): x=4, y=0: check x-y=4 >=
	// -2 ok. obj=8.
	p := NewProblem()
	x := p.AddVar(2)
	y := p.AddVar(3)
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, GE, 4)
	p.AddConstraint([]Term{{x, 1}, {y, -1}}, GE, -2)
	sol := certify(t, p, p.Solve())
	if sol.Status != Optimal || math.Abs(sol.Objective-8) > 1e-6 {
		t.Fatalf("sol = %+v", sol)
	}
}

func TestSimplexNegativeRHS(t *testing.T) {
	// min x s.t. -x <= -5  (i.e. x >= 5).
	p := NewProblem()
	x := p.AddVar(1)
	p.AddConstraint([]Term{{x, -1}}, LE, -5)
	sol := certify(t, p, p.Solve())
	if sol.Status != Optimal || math.Abs(sol.X[x]-5) > 1e-6 {
		t.Fatalf("sol = %+v", sol)
	}
}

func TestSimplexInfeasible(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(1)
	p.AddConstraint([]Term{{x, 1}}, LE, 1)
	p.AddConstraint([]Term{{x, 1}}, GE, 2)
	if sol := certify(t, p, p.Solve()); sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestSimplexUnbounded(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(-1) // maximize x with no cap
	p.AddConstraint([]Term{{x, -1}}, LE, 0)
	if sol := certify(t, p, p.Solve()); sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestSimplexDegenerate(t *testing.T) {
	// Beale's cycling example; Bland fallback must terminate.
	p := NewProblem()
	x1 := p.AddVar(-0.75)
	x2 := p.AddVar(150)
	x3 := p.AddVar(-0.02)
	x4 := p.AddVar(6)
	p.AddConstraint([]Term{{x1, 0.25}, {x2, -60}, {x3, -1.0 / 25}, {x4, 9}}, LE, 0)
	p.AddConstraint([]Term{{x1, 0.5}, {x2, -90}, {x3, -1.0 / 50}, {x4, 3}}, LE, 0)
	p.AddConstraint([]Term{{x3, 1}}, LE, 1)
	sol := certify(t, p, p.Solve())
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective-(-0.05)) > 1e-6 {
		t.Fatalf("objective = %v, want -0.05", sol.Objective)
	}
}

// TestSimplexTiePrefersLowestIndex pins the one tie-break other packages
// lean on: among columns that are interchangeable in the LP — same cost,
// same rows — the optimal vertex returned loads the lowest-index one first.
// The TE builders add a flow's tunnels shortest first, and bench/ref's
// Flexile table is the plan this preference produces; a change of pricing,
// perturbation or ratio-test order that flips it must fail here, not only
// in the external reference.
func TestSimplexTiePrefersLowestIndex(t *testing.T) {
	// Two "flows" of three parallel zero-cost columns each; every column
	// crosses its own capacity row, and each flow must be covered.
	p := NewProblem()
	var a [6]int
	for i := range a {
		a[i] = p.AddVar(0)
		p.AddConstraint([]Term{{a[i], 1}}, LE, 10)
	}
	p.AddConstraint([]Term{{a[0], 1}, {a[1], 1}, {a[2], 1}}, GE, 4)
	p.AddConstraint([]Term{{a[3], 1}, {a[4], 1}, {a[5], 1}}, GE, 14)
	sol := certify(t, p, p.Solve())
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	// Flow 0 fits on its first column; flow 1 fills its first and spills
	// the rest onto its second.
	want := []float64{4, 0, 0, 10, 4, 0}
	for i, w := range want {
		if math.Abs(sol.X[a[i]]-w) > 1e-9 {
			t.Fatalf("X = %v, want %v: equal columns must fill in index order", sol.X, want)
		}
	}
}

func TestSimplexDualsLE(t *testing.T) {
	// min -x - y s.t. x + y <= 10, x <= 6. At optimum obj = -10; the first
	// row's shadow price is -1, the second's 0.
	p := NewProblem()
	x := p.AddVar(-1)
	y := p.AddVar(-1)
	r1 := p.AddConstraint([]Term{{x, 1}, {y, 1}}, LE, 10)
	r2 := p.AddConstraint([]Term{{x, 1}}, LE, 6)
	sol := certify(t, p, p.Solve())
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Duals[r1]+1) > 1e-6 {
		t.Errorf("dual r1 = %v, want -1", sol.Duals[r1])
	}
	if math.Abs(sol.Duals[r2]) > 1e-6 {
		t.Errorf("dual r2 = %v, want 0", sol.Duals[r2])
	}
}

func TestSimplexDualsGE(t *testing.T) {
	// min 3x s.t. x >= 4: dual = 3 (shadow price of tightening).
	p := NewProblem()
	x := p.AddVar(3)
	r := p.AddConstraint([]Term{{x, 1}}, GE, 4)
	sol := certify(t, p, p.Solve())
	if sol.Status != Optimal || math.Abs(sol.Duals[r]-3) > 1e-6 {
		t.Fatalf("sol = %+v", sol)
	}
}

func TestSimplexDualsEQ(t *testing.T) {
	// min 2x + y s.t. x + y == 7, y <= 3 -> x=4, y=3, obj=11.
	// d obj / d rhs of the EQ row: increasing 7 forces more x: +2.
	p := NewProblem()
	x := p.AddVar(2)
	y := p.AddVar(1)
	r1 := p.AddConstraint([]Term{{x, 1}, {y, 1}}, EQ, 7)
	p.AddConstraint([]Term{{y, 1}}, LE, 3)
	sol := certify(t, p, p.Solve())
	if sol.Status != Optimal || math.Abs(sol.Objective-11) > 1e-6 {
		t.Fatalf("sol = %+v", sol)
	}
	if math.Abs(sol.Duals[r1]-2) > 1e-6 {
		t.Errorf("dual = %v, want 2", sol.Duals[r1])
	}
}

func TestMergeTerms(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(1)
	y := p.AddVar(1)
	i := p.AddConstraint([]Term{{x, 1}, {x, 2}, {y, 1}, {y, -1}}, LE, 5)
	c := p.constraints[i]
	if len(c.Terms) != 1 || c.Terms[0].Var != x || c.Terms[0].Coeff != 3 {
		t.Fatalf("merged terms = %+v", c.Terms)
	}
}

func TestAddConstraintUnknownVar(t *testing.T) {
	for name, add := range map[string]func(p *Problem){
		"constraint": func(p *Problem) { p.AddConstraint([]Term{{Var: 5, Coeff: 1}}, LE, 1) },
		"negative":   func(p *Problem) { p.AddConstraint([]Term{{Var: -1, Coeff: 1}}, LE, 1) },
		"bound":      func(p *Problem) { p.AddUpperBound(5, 1) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("unknown variable accepted")
				}
			}()
			p := NewProblem()
			p.AddVar(1)
			add(p)
		})
	}
}

// transportation builds a random feasible transportation problem whose
// optimum can be cross-checked against a brute-force grid search.
func TestSimplexRandomTransportation(t *testing.T) {
	rng := stats.NewRNG(99)
	for trial := 0; trial < 25; trial++ {
		// min sum c_ij x_ij; supply rows sum x_ij <= s_i; demand cols
		// sum x_ij >= d_j with sum d <= sum s.
		const m, n = 3, 3
		p := NewProblem()
		var vars [m][n]int
		var costs [m][n]float64
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				costs[i][j] = 1 + math.Floor(rng.Float64()*9)
				vars[i][j] = p.AddVar(costs[i][j])
			}
		}
		supply := [m]float64{10, 10, 10}
		demand := [n]float64{
			math.Floor(rng.Float64() * 10), math.Floor(rng.Float64() * 10), math.Floor(rng.Float64() * 10),
		}
		for i := 0; i < m; i++ {
			terms := make([]Term, n)
			for j := 0; j < n; j++ {
				terms[j] = Term{vars[i][j], 1}
			}
			p.AddConstraint(terms, LE, supply[i])
		}
		for j := 0; j < n; j++ {
			terms := make([]Term, m)
			for i := 0; i < m; i++ {
				terms[i] = Term{vars[i][j], 1}
			}
			p.AddConstraint(terms, GE, demand[j])
		}
		sol := certify(t, p, p.Solve())
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, sol.Status)
		}
		// Optimal transportation cost: each unit of demand j is served by
		// the cheapest source (supplies are ample at 10 >= any single
		// demand, but total demand may exceed one supplier; still, with 3
		// suppliers of 10 and demands < 10 each, the greedy bound holds
		// only if each demand can use its own cheapest row; verify
		// feasibility and a lower bound instead).
		var lower float64
		for j := 0; j < n; j++ {
			minC := math.Inf(1)
			for i := 0; i < m; i++ {
				minC = math.Min(minC, costs[i][j])
			}
			lower += minC * demand[j]
		}
		if sol.Objective < lower-1e-6 {
			t.Fatalf("trial %d: objective %v below lower bound %v", trial, sol.Objective, lower)
		}
		// Verify primal feasibility.
		for i := 0; i < m; i++ {
			var s float64
			for j := 0; j < n; j++ {
				s += sol.X[vars[i][j]]
			}
			if s > supply[i]+1e-6 {
				t.Fatalf("supply %d violated", i)
			}
		}
		for j := 0; j < n; j++ {
			var s float64
			for i := 0; i < m; i++ {
				s += sol.X[vars[i][j]]
			}
			if s < demand[j]-1e-6 {
				t.Fatalf("demand %d violated", j)
			}
		}
	}
}

// Property: strong duality — primal objective equals b . y at optimum for
// random small feasible LPs.
func TestQuickStrongDuality(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		p := NewProblem()
		n := 2 + rng.Intn(3)
		vars := make([]int, n)
		for i := range vars {
			vars[i] = p.AddVar(math.Floor(rng.Float64()*10) - 3)
		}
		m := 2 + rng.Intn(3)
		rhs := make([]float64, m)
		for i := 0; i < m; i++ {
			terms := make([]Term, 0, n)
			for j := 0; j < n; j++ {
				terms = append(terms, Term{vars[j], math.Floor(rng.Float64() * 4)})
			}
			rhs[i] = 1 + math.Floor(rng.Float64()*10)
			p.AddConstraint(terms, LE, rhs[i])
		}
		sol := certify(t, p, p.Solve())
		if sol.Status == Unbounded || sol.Status == Infeasible {
			return true // nothing to check (all-zero columns with negative cost)
		}
		if sol.Status != Optimal {
			return false
		}
		var dualObj float64
		for i := 0; i < m; i++ {
			dualObj += rhs[i] * sol.Duals[i]
		}
		return math.Abs(dualObj-sol.Objective) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// bruteLeaving is leavingRow by a scan of every basic, in position order:
// the largest scaled violation, ties to the lowest position, or under
// Bland's rule the infeasible basic of lowest variable index.
func bruteLeaving(s *solver) int32 {
	best, worst := int32(-1), 0.0
	for i, v := range s.basic {
		x := s.x[v]
		infeas := s.lo[v] - x
		if x > s.up[v] {
			infeas = x - s.up[v]
		}
		if infeas <= eps {
			continue
		}
		if s.bland() {
			if best < 0 || v < s.basic[best] {
				best = int32(i)
			}
			continue
		}
		if int(v) >= s.n {
			infeas /= s.rowNorm[int(v)-s.n]
		}
		if infeas > worst {
			best, worst = int32(i), infeas
		}
	}
	return best
}

// TestLeavingRowMatchesScan drives a random LP's solve pivot by pivot — a
// fresh solve under a budget of k units stops after k pivots — and checks
// the heap's choice against a scan of every basic, under the pricing rule
// and under Bland's rule, and that every eta lists its entries in position
// order, the order btran sums them in. On the chosen row it checks pivotRow
// against the row summed densely in row order, then runs dualRatio under
// Bland's rule: what enters must be eligible and at the smallest ratio.
func TestLeavingRowMatchesScan(t *testing.T) {
	rng := stats.NewRNG(11)
	for trial := 0; trial < 3; trial++ {
		p := randomLP(rng, 60+rng.Intn(40), 50+rng.Intn(40))
		steps, chosen := 0, 0
		for k := int64(1); ; k++ {
			s := new(solver).load(p, NewBudget(k))
			status := s.solve()
			for e := range s.f.ePos {
				if !slices.IsSorted(s.f.eIdx[s.f.ePtr[e]:s.f.ePtr[e+1]]) {
					t.Fatalf("trial %d, %d pivots: eta %d lists %v", trial, s.pivots, e, s.f.eIdx[s.f.ePtr[e]:s.f.ePtr[e+1]])
				}
			}
			for _, degenerate := range []int{0, blandTrigger} {
				s.degenerate = degenerate
				if got, want := s.leavingRow(), bruteLeaving(s); got != want {
					t.Fatalf("trial %d, %d pivots, bland %v: leavingRow %d, scan %d", trial, s.pivots, s.bland(), got, want)
				}
			}
			if r := s.leavingRow(); r >= 0 {
				chosen++
				checkPivotRow(t, s, r)
				checkBlandRatio(t, s, r)
			}
			if status != Truncated {
				break
			}
			steps++
		}
		if steps < 40 || chosen < 20 {
			t.Fatalf("trial %d: %d pivots, %d infeasible bases: too easy", trial, steps, chosen)
		}
	}
}

// checkPivotRow computes row r of B^-1 [A | I] with pivotRow and again
// from a dense btran, summing the constraint rows in row order: the two
// must list the same variables in the same order, with the same bits.
func checkPivotRow(t *testing.T, s *solver, r int32) {
	t.Helper()
	m := len(s.basic)
	c, y := newSparse(m), newSparse(m)
	c.dense()
	c.val[r] = 1
	s.f.btran(&c, &y)
	var nz []int32
	alpha := make([]float64, len(s.alpha))
	seen := make([]bool, s.n)
	for i := 0; i < m; i++ {
		ri := y.val[i]
		if ri == 0 {
			continue
		}
		alpha[s.n+i] = ri
		nz = append(nz, int32(s.n+i))
		for _, term := range s.p.constraints[i].Terms {
			if !seen[term.Var] {
				seen[term.Var] = true
				nz = append(nz, int32(term.Var))
			}
			alpha[term.Var] += ri * term.Coeff
		}
	}
	s.pivotRow(r)
	if !slices.Equal(s.nz, nz) {
		t.Fatalf("pivot row %d lists %v, dense %v", r, s.nz, nz)
	}
	for _, j := range nz {
		if math.Float64bits(s.alpha[j]) != math.Float64bits(alpha[j]) {
			t.Fatalf("pivot row %d at variable %d: %v, dense %v", r, j, s.alpha[j], alpha[j])
		}
	}
}

// checkBlandRatio runs the dual ratio test for basis position r, whose
// pivot row is computed, under Bland's rule (s.degenerate is blandTrigger)
// and checks its choice against every eligible candidate of the row.
func checkBlandRatio(t *testing.T, s *solver, r int32) {
	t.Helper()
	p := s.basic[r]
	toUpper := s.x[p] > s.up[p]
	sign := -1.0
	if toUpper {
		sign = 1
	}
	ratio := func(j int32) float64 { return math.Abs(s.d[j]) / math.Abs(s.alpha[j]) }
	eligible := map[int32]bool{}
	least := math.Inf(1)
	for _, j := range s.nz {
		a := sign * s.alpha[j]
		if s.pos[j] < 0 && s.lo[j] != s.up[j] && ((s.atUpper[j] && a < -eps) || (!s.atUpper[j] && a > eps)) {
			eligible[j] = true
			least = math.Min(least, ratio(j))
		}
	}
	q := s.dualRatio(p, toUpper)
	switch {
	case q < 0 && len(eligible) > 0:
		t.Fatalf("dualRatio under Bland's rule: nothing enters, %d eligible", len(eligible))
	case q >= 0 && (!eligible[q] || ratio(q) > least+1e-9):
		t.Fatalf("dualRatio under Bland's rule: %d enters at ratio %v (eligible %v), least %v", q, ratio(q), eligible[q], least)
	}
}

// TestPrimalUnderBland runs the primal pass under Bland's rule: from the
// optimal basis of a random LP, under a second objective, whose optimum it
// must certify.
func TestPrimalUnderBland(t *testing.T) {
	rng := stats.NewRNG(12)
	pivots := 0
	for trial := 0; trial < 10; trial++ {
		p := randomLP(rng, 60, 50)
		s := new(solver).load(p, nil)
		if s.solve() != Optimal {
			continue
		}
		q := *p
		q.objective = make([]float64, q.numVars)
		for j := range q.objective {
			q.objective[j] = math.Floor(rng.Float64()*8) - 1
		}
		s.p = &q
		copy(s.cost, q.objective)
		start := s.pivots
		s.degenerate = blandTrigger
		status := s.primal()
		pivots += s.pivots - start
		sol := &Solution{Status: status}
		if status == Optimal {
			if s.leavingRow() >= 0 {
				t.Fatalf("trial %d: primal left the basis infeasible", trial)
			}
			s.extract(sol)
		}
		certify(t, &q, sol)
	}
	if pivots == 0 {
		t.Fatal("no primal pivot was made")
	}
}
