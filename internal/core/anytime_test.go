package core

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"prete/internal/te"
)

// checkFeasible asserts the allocation respects every link capacity.
func checkFeasible(t *testing.T, in *te.Input, alloc te.Allocation) {
	t.Helper()
	if err := te.CheckCapacity(in.Net, &te.Plan{Alloc: alloc, Tunnels: in.Tunnels}); err != nil {
		t.Fatal(err)
	}
}

// TestAnytimeMonotonicity is the determinism-and-monotonicity table: on real
// topologies, equal deterministic budgets must reproduce bit-identical
// results on every run, and a larger budget must never yield
// a worse objective — each budget executes a strict prefix of the same
// iteration sequence, and the incumbent bound only tightens.
func TestAnytimeMonotonicity(t *testing.T) {
	budgets := []int64{1, 3, 10, 50, 200, 1000, 5000, 20000, 0} // 0 = unlimited
	topos := []string{"B4"}
	if !testing.Short() {
		topos = append(topos, "IBM")
	}
	for _, topo := range topos {
		in := realInput(t, topo, 7)
		type outcome struct {
			phi       float64
			alloc     te.Allocation
			truncated bool
			fallback  bool
			work      int64
		}
		var prev *outcome
		for _, units := range budgets {
			var ref *outcome
			for run := range 2 {
				o := DefaultOptimizer()
				o.BudgetUnits = units
				res, err := o.Solve(in)
				if err != nil {
					t.Fatalf("%s budget=%d run %d: %v", topo, units, run, err)
				}
				checkFeasible(t, in, res.Alloc)
				got := &outcome{
					phi: res.Phi, alloc: res.Alloc,
					truncated: res.Truncated, fallback: res.Fallback,
					work: res.WorkUnits,
				}
				if ref == nil {
					ref = got
					continue
				}
				if math.Float64bits(got.phi) != math.Float64bits(ref.phi) {
					t.Fatalf("%s budget=%d run %d: phi %v != %v at run 0", topo, units, run, got.phi, ref.phi)
				}
				if got.truncated != ref.truncated || got.fallback != ref.fallback || got.work != ref.work {
					t.Fatalf("%s budget=%d run %d: flags/work (%v,%v,%d) != (%v,%v,%d)",
						topo, units, run, got.truncated, got.fallback, got.work,
						ref.truncated, ref.fallback, ref.work)
				}
				if !reflect.DeepEqual(got.alloc, ref.alloc) {
					t.Fatalf("%s budget=%d run %d: allocation diverges from run 0", topo, units, run)
				}
			}
			// budgets are sorted ascending with unlimited (0) last, so each
			// row's phi must be no worse than the previous row's.
			if prev != nil && ref.phi > prev.phi+1e-12 {
				t.Fatalf("%s budget=%d: phi %v worse than smaller budget's %v", topo, units, ref.phi, prev.phi)
			}
			prev = ref
		}
		if prev.truncated || prev.fallback {
			t.Fatalf("%s: unlimited solve still reported truncated=%v fallback=%v", topo, prev.truncated, prev.fallback)
		}
	}
}

// TestAnytimeExhaustedBudgetB4 pins the acceptance criterion: with an
// exhausted budget on B4, Solve returns a feasible plan flagged as a
// truncated incumbent or heuristic fallback — never an error, never an
// infeasible plan.
func TestAnytimeExhaustedBudgetB4(t *testing.T) {
	in := realInput(t, "B4", 7)
	unlimited := DefaultOptimizer()
	ref, err := unlimited.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if ref.FirstIncumbentUnits <= 0 || ref.FirstIncumbentUnits >= ref.WorkUnits {
		t.Fatalf("reference solve: first incumbent at %d of %d units", ref.FirstIncumbentUnits, ref.WorkUnits)
	}
	for _, units := range []int64{1, 2, 5, 25, 150, ref.FirstIncumbentUnits, ref.WorkUnits - 1} {
		o := DefaultOptimizer()
		o.BudgetUnits = units
		res, err := o.Solve(in)
		if err != nil {
			t.Fatalf("budget=%d: %v", units, err)
		}
		if !res.Truncated {
			t.Fatalf("budget=%d finished a full B4 solve; tighten the test budget (work=%d)", units, res.WorkUnits)
		}
		if res.Fallback && res.FirstIncumbentUnits != 0 {
			t.Fatalf("budget=%d: fallback despite an incumbent at %d units", units, res.FirstIncumbentUnits)
		}
		if len(res.Alloc) == 0 {
			t.Fatalf("budget=%d: empty allocation", units)
		}
		checkFeasible(t, in, res.Alloc)
	}
	// Sanity: a budget at exactly the first-incumbent point must land on the
	// truncated-incumbent rung, not the heuristic fallback.
	o := DefaultOptimizer()
	o.BudgetUnits = ref.FirstIncumbentUnits
	res, _ := o.Solve(in)
	if res.Fallback {
		t.Fatalf("%d-unit budget still on the heuristic rung", ref.FirstIncumbentUnits)
	}
}

// TestHeuristicPlanFeasible: the fallback rung must always produce a
// capacity-feasible plan with a sane phi, including on degenerate inputs.
func TestHeuristicPlanFeasible(t *testing.T) {
	for _, topo := range []string{"B4", "IBM"} {
		in := realInput(t, topo, 3)
		sm, err := newSolveModel(in, lazyClasses(in))
		if err != nil {
			t.Fatal(err)
		}
		alloc, phi := sm.heuristicPlan()
		if phi < 0 || phi > 1 {
			t.Fatalf("%s: heuristic phi %v outside [0,1]", topo, phi)
		}
		checkFeasible(t, in, alloc)
	}
}

// TestSolveBudgetWallClock: an already-expired wall-clock deadline must
// still yield a feasible fallback plan, not an error.
func TestSolveBudgetWallClock(t *testing.T) {
	in := realInput(t, "B4", 7)
	o := DefaultOptimizer()
	o.SolveTimeout = time.Nanosecond
	res, err := o.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || !res.Fallback {
		t.Fatalf("1ns deadline: truncated=%v fallback=%v", res.Truncated, res.Fallback)
	}
	checkFeasible(t, in, res.Alloc)
}

// TestSolveExactTruncationTyped pins the satellite: SolveExact under a
// starvation node limit surfaces either a feasible Result with Truncated set
// or a typed *Truncation — never a generic error, never a silent "optimal".
func TestSolveExactTruncationTyped(t *testing.T) {
	in := triangleInput(t, 8, []float64{0.01, 0.02, 0.015}, 0.9)
	res, err := SolveExact(in, 1)
	if err != nil {
		var tr *Truncation
		if !errors.As(err, &tr) {
			t.Fatalf("node-starved SolveExact returned untyped error: %v", err)
		}
		if tr.Stage != "exact" {
			t.Fatalf("Truncation.Stage = %q", tr.Stage)
		}
		return
	}
	if !res.Truncated {
		full, err := SolveExact(in, 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Phi-full.Phi) > 1e-9 {
			t.Fatalf("node-starved exact claims optimal phi %v, true optimum %v", res.Phi, full.Phi)
		}
	}
}

func TestParseBudget(t *testing.T) {
	cases := []struct {
		in      string
		units   int64
		timeout time.Duration
		wantErr bool
	}{
		{"", 0, 0, false},
		{"0", 0, 0, false},
		{"5000", 5000, 0, false},
		{"5000:150ms", 5000, 150 * time.Millisecond, false},
		{":2s", 0, 2 * time.Second, false},
		{" 250 ", 250, 0, false},
		{"-1", 0, 0, true},
		{"abc", 0, 0, true},
		{"10:xyz", 0, 0, true},
		{"10:-1s", 0, 0, true},
	}
	for _, c := range cases {
		units, timeout, err := ParseBudget(c.in)
		if (err != nil) != c.wantErr {
			t.Fatalf("ParseBudget(%q) err = %v, wantErr %v", c.in, err, c.wantErr)
		}
		if err == nil && (units != c.units || timeout != c.timeout) {
			t.Fatalf("ParseBudget(%q) = %d, %v; want %d, %v", c.in, units, timeout, c.units, c.timeout)
		}
	}
}
