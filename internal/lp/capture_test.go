package lp_test

import (
	"hash/fnv"
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

// stormInput is the named topology with one fiber's failure probability
// raised the way a predicted degradation raises it.
func stormInput(t testing.TB, topo string) *te.Input {
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
	return &te.Input{Net: net, Tunnels: ts, Demands: demands, Scenarios: set, Beta: 0.99}
}

// stormSolve runs one cold Benders solve of stormInput and returns the LPs
// core built for it with their solutions.
func stormSolve(t testing.TB, topo string) ([]*lp.Problem, []*lp.Solution) {
	t.Helper()
	return lp.CaptureSolves(stormSolveOf(t, stormInput(t, topo)))
}

func stormSolveOf(t testing.TB, in *te.Input) func() {
	return func() {
		if _, err := core.DefaultOptimizer().Solve(in); err != nil {
			t.Fatal(err)
		}
	}
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

// TestCoreLPsUnchanged pins the LPs themselves, not only their optima: every
// Problem core and te hand the solver for these inputs must hash to the value
// recorded before the builders were folded into one positional model. The
// LPs are degenerate at their optimum, so bench/ref, fig8_quick.golden and
// lp.pivots all depend on the column, row and term order staying exactly
// this.
func TestCoreLPsUnchanged(t *testing.T) {
	b4 := stormInput(t, "B4")
	plan := func(build func(*te.Input) (*te.Plan, error)) func() {
		return func() {
			if _, err := build(b4); err != nil {
				t.Fatal(err)
			}
		}
	}
	minMaxLoss := func(in *te.Input) (*te.Plan, error) { return te.MinMaxLossPlan(in, nil) }
	// Four B4 flows under few scenarios stay below core's exact-master limit,
	// so this case walks the MIP master, several Benders rounds and
	// SolveExact's monolithic MIP, none of which the storm solves reach.
	small := *b4
	small.Tunnels, _ = routing.BuildTunnels(b4.Net, b4.Tunnels.Flows[:4], 4)
	small.Demands = te.Demands{900, 900, 900, 900}
	small.Scenarios = &scenario.Set{Scenarios: b4.Scenarios.Scenarios[:12]}
	small.Beta = 0.95
	for _, tc := range []struct {
		name  string
		solve func()
		lps   int
		want  uint64
	}{
		{"B4 storm", stormSolveOf(t, b4), 3, 0x199fe65dee74a893},
		{"IBM storm", stormSolveOf(t, stormInput(t, "IBM")), 3, 0xdfd6e412bdf039ca},
		{"B4 four flows, Benders then exact", func() {
			stormSolveOf(t, &small)()
			if _, err := core.SolveExact(&small, 500); err != nil {
				t.Fatal(err)
			}
		}, 19, 0x2e5327f6f8ccd276},
		{"B4 MinMaxLossPlan", plan(minMaxLoss), 1, 0xed4c2b4b352b6abd},
		{"B4 FFC-1", plan(te.FFC{K: 1}.Plan), 1, 0x9aa7086efeacf2d2},
	} {
		problems, _ := lp.CaptureSolves(tc.solve)
		h := fnv.New64a()
		for _, p := range problems {
			lp.HashProblem(h, p)
		}
		if got := h.Sum64(); len(problems) != tc.lps || got != tc.want {
			t.Errorf("%s: %d LPs hashing to %#x, want %d LPs hashing to %#x", tc.name, len(problems), got, tc.lps, tc.want)
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
