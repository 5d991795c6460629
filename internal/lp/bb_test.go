package lp

import (
	"math"
	"testing"

	"prete/internal/stats"
)

func TestMIPKnapsack(t *testing.T) {
	// max 10a + 6b + 4c s.t. a + b + c <= 2 (binary) -> a,b -> 16.
	m := NewMIP()
	a := m.AddBinaryVar(-10)
	b := m.AddBinaryVar(-6)
	c := m.AddBinaryVar(-4)
	m.AddConstraint([]Term{{a, 1}, {b, 1}, {c, 1}}, LE, 2)
	sol := certifyMIP(t, m, m.SolveMIP(MIPOptions{}))
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective+16) > 1e-6 {
		t.Fatalf("objective = %v, want -16", sol.Objective)
	}
	if sol.X[a] < 0.5 || sol.X[b] < 0.5 || sol.X[c] > 0.5 {
		t.Fatalf("selection = %v", sol.X)
	}
}

func TestMIPFractionalRelaxation(t *testing.T) {
	// max 5a + 4b s.t. 6a + 5b <= 8: LP relaxation fractional, integer
	// optimum is a single item: a (5) beats b (4).
	m := NewMIP()
	a := m.AddBinaryVar(-5)
	b := m.AddBinaryVar(-4)
	m.AddConstraint([]Term{{a, 6}, {b, 5}}, LE, 8)
	sol := certifyMIP(t, m, m.SolveMIP(MIPOptions{}))
	if sol.Status != Optimal || math.Abs(sol.Objective+5) > 1e-6 {
		t.Fatalf("sol = %+v", sol)
	}
	for v := range m.binary {
		x := sol.X[v]
		if math.Abs(x-math.Round(x)) > 1e-6 {
			t.Fatalf("binary %d fractional: %v", v, x)
		}
	}
}

func TestMIPInfeasible(t *testing.T) {
	m := NewMIP()
	a := m.AddBinaryVar(1)
	m.AddConstraint([]Term{{a, 1}}, GE, 2)
	if sol := certifyMIP(t, m, m.SolveMIP(MIPOptions{})); sol.Status != Infeasible {
		t.Fatalf("status = %v", sol.Status)
	}
}

// TestMIPFixingRespectsBounds: a fixing is intersected with the variable's
// own bounds, not written over them. A binary tightened to a <= 0.5 is
// fractional at the root; its a = 1 branch must be infeasible, leaving a = 0.
func TestMIPFixingRespectsBounds(t *testing.T) {
	m := NewMIP()
	a := m.AddBinaryVar(-1)
	m.AddUpperBound(a, 0.5)
	if sol := m.solveWithFixings(map[int]float64{a: 1}, nil); sol.Status != Infeasible {
		t.Fatalf("a fixed at 1 above its upper bound 0.5: status = %v", sol.Status)
	}
	if sol := m.solveWithFixings(map[int]float64{a: 0}, nil); sol.Status != Optimal || sol.X[a] != 0 {
		t.Fatalf("a fixed at 0: %+v", sol)
	}
	sol := certifyMIP(t, m, m.SolveMIP(MIPOptions{}))
	if sol.Status != Optimal || sol.X[a] != 0 || sol.Objective != 0 {
		t.Fatalf("sol = %+v, want a = 0", sol)
	}
}

func TestMIPMixed(t *testing.T) {
	// Mixed: binary gate g enables continuous x <= 10g; max x - 3g.
	// With g=1: x=10, obj = 7 (we minimize -x + 3g = -7).
	m := NewMIP()
	x := m.AddVar(-1)
	g := m.AddBinaryVar(3)
	m.AddConstraint([]Term{{x, 1}, {g, -10}}, LE, 0)
	sol := certifyMIP(t, m, m.SolveMIP(MIPOptions{}))
	if sol.Status != Optimal || math.Abs(sol.Objective+7) > 1e-6 {
		t.Fatalf("sol = %+v", sol)
	}
}

// TestMIPAgainstBruteForce cross-checks branch-and-bound against exhaustive
// enumeration on random small binary programs.
func TestMIPAgainstBruteForce(t *testing.T) {
	rng := stats.NewRNG(4242)
	for trial := 0; trial < 20; trial++ {
		const nb = 6
		m := NewMIP()
		costs := make([]float64, nb)
		vars := make([]int, nb)
		for i := 0; i < nb; i++ {
			costs[i] = math.Floor(rng.Float64()*21) - 10
			vars[i] = m.AddBinaryVar(costs[i])
		}
		weights := make([]float64, nb)
		terms := make([]Term, nb)
		for i := 0; i < nb; i++ {
			weights[i] = 1 + math.Floor(rng.Float64()*5)
			terms[i] = Term{vars[i], weights[i]}
		}
		cap := 3 + math.Floor(rng.Float64()*10)
		m.AddConstraint(terms, LE, cap)
		sol := certifyMIP(t, m, m.SolveMIP(MIPOptions{}))
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, sol.Status)
		}
		best := math.Inf(1)
		for mask := 0; mask < 1<<nb; mask++ {
			var w, c float64
			for i := 0; i < nb; i++ {
				if mask&(1<<i) != 0 {
					w += weights[i]
					c += costs[i]
				}
			}
			if w <= cap && c < best {
				best = c
			}
		}
		if math.Abs(sol.Objective-best) > 1e-6 {
			t.Fatalf("trial %d: got %v, brute force %v", trial, sol.Objective, best)
		}
	}
}

func TestMIPNodeLimitReturnsIncumbent(t *testing.T) {
	m := NewMIP()
	var terms []Term
	for i := 0; i < 12; i++ {
		v := m.AddBinaryVar(-1)
		terms = append(terms, Term{v, 1.5})
	}
	m.AddConstraint(terms, LE, 7)
	sol := certifyMIP(t, m, m.SolveMIP(MIPOptions{MaxNodes: 3}))
	// With a tiny node budget the solver may or may not prove optimality,
	// but it must return something sane, never panic.
	if sol.Status != Optimal && sol.Status != IterationLimit && sol.Status != Infeasible {
		t.Fatalf("status = %v", sol.Status)
	}
}

func TestIsBinary(t *testing.T) {
	m := NewMIP()
	x := m.AddVar(1)
	b := m.AddBinaryVar(1)
	if m.IsBinary(x) || !m.IsBinary(b) {
		t.Fatal("IsBinary misreports")
	}
}
