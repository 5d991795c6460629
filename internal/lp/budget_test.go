package lp

import (
	"testing"
	"time"
)

// budgetLP builds a small LP that needs several pivots: minimize -x1-x2
// under a few capacity rows.
func budgetLP(t *testing.T) *Problem {
	t.Helper()
	p := NewProblem()
	x1 := p.AddVar(-1, "x1")
	x2 := p.AddVar(-1, "x2")
	x3 := p.AddVar(-0.5, "x3")
	for _, row := range []struct {
		terms []Term
		rhs   float64
	}{
		{[]Term{{x1, 1}, {x2, 2}}, 14},
		{[]Term{{x1, 3}, {x2, -1}, {x3, 1}}, 9},
		{[]Term{{x1, 1}, {x2, -1}, {x3, 2}}, 3},
	} {
		if _, err := p.AddConstraint(row.terms, LE, row.rhs, "c"); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// solveBudgetLP and solveBudgetMIP solve a fresh fixture under a budget and
// check the certificate of an Optimal outcome.
func solveBudgetLP(t *testing.T, b *Budget) *Solution {
	t.Helper()
	p := budgetLP(t)
	return certify(t, p, p.SolveBudget(b))
}

func solveBudgetMIP(t *testing.T, opts MIPOptions) *Solution {
	t.Helper()
	m := budgetMIP(t)
	return certifyMIP(t, m, m.SolveMIP(opts))
}

func TestNilBudgetUnlimited(t *testing.T) {
	var b *Budget
	if !b.Spend(1 << 40) {
		t.Fatal("nil budget must allow any spend")
	}
	if b.Spent() != 0 || b.Remaining() != -1 {
		t.Fatalf("nil budget Spent/Remaining = %d/%d", b.Spent(), b.Remaining())
	}
	p := budgetLP(t)
	if got, want := certify(t, p, p.SolveBudget(nil)), p.Solve(); got.Status != want.Status || got.Objective != want.Objective {
		t.Fatalf("SolveBudget(nil) = %v/%v, Solve() = %v/%v", got.Status, got.Objective, want.Status, want.Objective)
	}
}

func TestBudgetSpendSemantics(t *testing.T) {
	b := NewBudget(3)
	for i := 0; i < 3; i++ {
		if !b.Spend(1) {
			t.Fatalf("spend %d of 3 refused", i+1)
		}
	}
	if b.Spend(1) {
		t.Fatal("fourth unit granted from a 3-unit budget")
	}
	if b.Spend(1) {
		t.Fatal("exhaustion must be sticky")
	}
	if b.Spent() != 5 {
		t.Fatalf("Spent = %d, want 5 (attempts are counted)", b.Spent())
	}
	if b.Remaining() != 0 {
		t.Fatalf("Remaining = %d, want 0", b.Remaining())
	}
}

func TestBudgetDeadline(t *testing.T) {
	b := NewBudget(0).WithDeadline(time.Now().Add(-time.Second))
	if b.Spend(1) {
		t.Fatal("expired deadline must refuse work")
	}
	ok := NewBudget(0).WithTimeout(time.Hour)
	if !ok.Spend(1000) {
		t.Fatal("future deadline with no unit limit must allow work")
	}
}

func TestSimplexTruncates(t *testing.T) {
	full := solveBudgetLP(t, nil)
	if full.Status != Optimal {
		t.Fatalf("reference solve: %v", full.Status)
	}
	if full.Pivots < 2 {
		t.Fatalf("test LP too easy: %d pivots", full.Pivots)
	}
	for units := int64(1); units < int64(full.Pivots); units++ {
		sol := solveBudgetLP(t, NewBudget(units))
		if sol.Status != Truncated {
			t.Fatalf("budget %d (< %d pivots): status %v, want truncated", units, full.Pivots, sol.Status)
		}
		if int64(sol.Pivots) != units {
			t.Fatalf("budget %d: %d pivots performed", units, sol.Pivots)
		}
	}
	sol := solveBudgetLP(t, NewBudget(int64(full.Pivots)))
	if sol.Status != Optimal || sol.Objective != full.Objective {
		t.Fatalf("exact budget: %v/%v, want %v/%v", sol.Status, sol.Objective, Optimal, full.Objective)
	}
}

func TestSimplexBudgetDeterministic(t *testing.T) {
	a := solveBudgetLP(t, NewBudget(2))
	b := solveBudgetLP(t, NewBudget(2))
	if a.Status != b.Status || a.Pivots != b.Pivots {
		t.Fatalf("equal budgets diverge: %v/%d vs %v/%d", a.Status, a.Pivots, b.Status, b.Pivots)
	}
	for i := range a.X {
		if a.X[i] != b.X[i] {
			t.Fatalf("equal budgets produce different iterates at x[%d]", i)
		}
	}
}

// budgetMIP is a small knapsack-style binary program with a nontrivial tree.
func budgetMIP(t *testing.T) *MIP {
	t.Helper()
	m := NewMIP()
	vals := []float64{-5, -4, -3, -6, -2}
	wts := []float64{4, 3, 2, 5, 1}
	terms := make([]Term, len(vals))
	for i, v := range vals {
		terms[i] = Term{Var: m.AddBinaryVar(v, "b"), Coeff: wts[i]}
	}
	if _, err := m.AddConstraint(terms, LE, 7, "knap"); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMIPTruncates(t *testing.T) {
	full := solveBudgetMIP(t, MIPOptions{})
	if full.Status != Optimal {
		t.Fatalf("reference MIP: %v", full.Status)
	}
	sol := solveBudgetMIP(t, MIPOptions{Budget: NewBudget(1)})
	if sol.Status != Truncated {
		t.Fatalf("1-unit budget: status %v, want truncated", sol.Status)
	}
	// A generous-but-finite budget must return either the optimum or a
	// truncated feasible/relaxation point — never Infeasible.
	for units := int64(1); units <= 200; units *= 2 {
		sol := solveBudgetMIP(t, MIPOptions{Budget: NewBudget(units)})
		if sol.Status == Infeasible || sol.Status == Unbounded {
			t.Fatalf("budget %d: status %v on a feasible MIP", units, sol.Status)
		}
		if sol.Status == Optimal && sol.Objective != full.Objective {
			t.Fatalf("budget %d claims optimal %v, true optimum %v", units, sol.Objective, full.Objective)
		}
	}
}

// TestMIPNodeLimitSurfaced pins the StatusIterLimit satellite: exhausting
// MaxNodes with open nodes must surface the cap in Solution.Status, not
// silently return the incumbent as optimal.
func TestMIPNodeLimitSurfaced(t *testing.T) {
	sol := solveBudgetMIP(t, MIPOptions{MaxNodes: 2})
	if sol.Status != StatusIterLimit && sol.Status != Optimal {
		t.Fatalf("node-capped MIP: status %v", sol.Status)
	}
	full := solveBudgetMIP(t, MIPOptions{})
	if sol.Status == Optimal && sol.Objective != full.Objective {
		t.Fatalf("node-capped MIP claims optimal %v but optimum is %v", sol.Objective, full.Objective)
	}
}
