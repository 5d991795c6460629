package lp_test

import (
	"slices"
	"sync"
	"testing"

	"prete/internal/core"
	"prete/internal/lp"
	"prete/internal/routing"
	"prete/internal/scenario"
	"prete/internal/stats"
	"prete/internal/te"
	"prete/internal/topology"
)

// stormSolve runs one cold Benders solve of the named topology with one
// fiber's failure probability raised the way a predicted degradation raises
// it, and returns the LPs core built for it with their solutions.
func stormSolve(t testing.TB, topo string) ([]*lp.Problem, []*lp.Solution) {
	t.Helper()
	net, err := topology.ByName(topo)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := routing.BuildTunnels(net, routing.Flows(net), 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(2025)
	probs := make([]float64, len(net.Fibers))
	for i := range probs {
		probs[i] = 0.001 + 0.004*rng.Float64()
	}
	probs[3] = 0.4
	set, err := scenario.Enumerate(probs, scenario.Options{Cutoff: 1e-9, MaxFailures: 2, MaxScenarios: 200})
	if err != nil {
		t.Fatal(err)
	}
	demands := make(te.Demands, len(ts.Flows))
	for i := range demands {
		demands[i] = 10 + 5*rng.Float64()
	}
	in := &te.Input{Net: net, Tunnels: ts, Demands: demands, Scenarios: set, Beta: 0.99}
	return lp.CaptureSolves(func() {
		if _, err := core.DefaultOptimizer().Solve(in); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCertifyCoreLPs checks the duality certificate of every LP one B4 and
// one IBM storm solve hands the solver: master, subproblem and polish.
func TestCertifyCoreLPs(t *testing.T) {
	for _, topo := range []string{"B4", "IBM"} {
		problems, solutions := stormSolve(t, topo)
		if len(problems) < 3 {
			t.Fatalf("%s: captured %d LPs, want master, subproblem and polish", topo, len(problems))
		}
		for i, p := range problems {
			if solutions[i].Status != lp.Optimal {
				t.Fatalf("%s LP %d: %v", topo, i, solutions[i].Status)
			}
			if err := lp.Certify(p, solutions[i]); err != nil {
				t.Errorf("%s LP %d (%d x %d): %v", topo, i, p.NumConstraints(), p.NumVars(), err)
			}
			t.Logf("%s LP %d: %d rows x %d vars, %d pivots", topo, i, p.NumConstraints(), p.NumVars(), solutions[i].Pivots)
		}
	}
}

// TestSolveSharesNothing pins the determinism contract's second half: a
// solve depends on its Problem alone. Eight goroutines solving one B4
// subproblem at once (sim.Evaluator calls one Optimizer from many par
// workers) must each return the serial solve's X, Duals and Pivots, bit for
// bit.
func TestSolveSharesNothing(t *testing.T) {
	problems, solutions := stormSolve(t, "B4")
	// The subproblem is the LP with the most rows.
	k := 0
	for i, p := range problems {
		if p.NumConstraints() > problems[k].NumConstraints() {
			k = i
		}
	}
	p, want := problems[k], solutions[k]
	got := make([]*lp.Solution, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = p.Solve()
		}()
	}
	wg.Wait()
	for g, sol := range got {
		if sol.Pivots != want.Pivots || !slices.Equal(sol.X, want.X) || !slices.Equal(sol.Duals, want.Duals) {
			t.Errorf("goroutine %d: solve differs from the serial one (%d vs %d pivots)", g, sol.Pivots, want.Pivots)
		}
	}
}
