package lp_test

import (
	"hash/fnv"
	"math"
	"runtime"
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

// TestCoreSolutionsUnchanged pins what the solver returns, not only what it
// is handed: every Solution (Status, Pivots, Objective, X, Duals) captured
// from these inputs must hash, in capture order, to the recorded value. A
// change of arithmetic order anywhere in a pivot moves some bit and fails
// here, in a second, before the slower golden files notice. The last case's
// LPs run past five refactorisations, which the storm LPs (at most four)
// and TestSimplexAtScale (one) do not.
func TestCoreSolutionsUnchanged(t *testing.T) {
	b4 := stormInput(t, "B4")
	randomLPs := func(seed uint64, count, rows, rowSpread, cols, colSpread int) func() {
		return func() {
			rng := stats.NewRNG(seed)
			for i := 0; i < count; i++ {
				lp.RandomLP(rng, rows+rng.Intn(rowSpread), cols+rng.Intn(colSpread)).Solve()
			}
		}
	}
	for _, tc := range []struct {
		name  string
		solve func()
		want  uint64
	}{
		{"B4 storm", stormSolveOf(t, b4), 0x2baff312a9e1a820},
		{"IBM storm", stormSolveOf(t, stormInput(t, "IBM")), 0x541c3840005397d7},
		{"TWAN storm", stormSolveOf(t, stormInput(t, "TWAN")), 0x3770f74b7a4623c8},
		{"B4 MinMaxLossPlan, FFC-1", func() {
			if _, err := te.MinMaxLossPlan(b4, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := (te.FFC{K: 1}).Plan(b4); err != nil {
				t.Fatal(err)
			}
		}, 0xbd25a9d467c18726},
		{"300 random LPs", randomLPs(77, 300, 50, 200, 40, 200), 0xba94277a10e1cb3f},
		{"10 random LPs of 300-499 rows", randomLPs(78, 10, 300, 200, 200, 200), 0x69c5991474390c80},
	} {
		problems, solutions := lp.CaptureSolves(tc.solve)
		h := fnv.New64a()
		pivots, longest := 0, 0
		for i, sol := range solutions {
			if sol.Status == lp.Optimal {
				if err := lp.Certify(problems[i], sol); err != nil {
					t.Errorf("%s LP %d: %v", tc.name, i, err)
				}
			}
			lp.HashSolution(h, sol)
			pivots += sol.Pivots
			longest = max(longest, sol.Pivots)
		}
		t.Logf("%s: %d solves, %d pivots, longest %d", tc.name, len(solutions), pivots, longest)
		if got := h.Sum64(); got != tc.want {
			t.Errorf("%s: %d solutions hashing to %#x, want %#x", tc.name, len(solutions), got, tc.want)
		}
	}
}

// TestSolveAllocBounded gates the bytes one Solve allocates for each LP of
// a B4 storm solve, the benchmark's hot path. A solve takes its workspace
// from the pool, recycled from the solves before it, so all it allocates
// is its answer: the Solution with its X and Duals. Each ceiling is 5% over
// the bytes measured when it was set (5,712, 6,736 and 11,856 B on go1.24
// linux/amd64, the same under -race), so a solve that allocates its own
// workspace again fails here: each did before the pool, at 67,136, 180,672
// and 289,920 B. go.mod's go1.22 has not been measured. Every byte counted
// comes from the Solution and two make calls of pointer-free slices, so the
// count is fixed by the runtime's size classes, the same in go1.22 and
// go1.24. If a toolchain reads otherwise, measure there and re-set them.
func TestSolveAllocBounded(t *testing.T) {
	problems, _ := stormSolve(t, "B4")
	ceilings := []uint64{5_997, 7_072, 12_448} // master, subproblem, polish
	if len(problems) != len(ceilings) {
		t.Fatalf("captured %d LPs, want %d", len(problems), len(ceilings))
	}
	for i, p := range problems {
		// The fewest bytes of five solves: noise (a GC cycle's own
		// allocations, or one that empties the pool) only adds.
		least := uint64(math.MaxUint64)
		for k := 0; k < 5; k++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			p.Solve()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("LP %d (%d rows): %d B per solve", i, p.NumConstraints(), least)
		if least > ceilings[i] {
			t.Errorf("LP %d (%d rows): %d B per solve, ceiling %d", i, p.NumConstraints(), least, ceilings[i])
		}
	}
}

// TestRecycledWorkspaceSolvesLikeFresh pins the workspace pool's contract:
// a solve re-initialises everything it reads of a recycled workspace. On
// one goroutine, B4's subproblem is solved, then a small random LP (EQ, GE
// and LE rows, fixed and boxed columns), then the subproblem again: through
// the pool, and on one workspace overwritten with garbage before each
// solve. Each repeat must return the first solve's X, Duals and Pivots, bit
// for bit, and the small LP its own fresh solve's.
func TestRecycledWorkspaceSolvesLikeFresh(t *testing.T) {
	problems, solutions := stormSolve(t, "B4")
	k := 0
	for i, p := range problems {
		if p.NumConstraints() > problems[k].NumConstraints() {
			k = i
		}
	}
	big, want := problems[k], solutions[k]
	small := lp.RandomLP(stats.NewRNG(6), 40, 30)
	// The first solve on a new workspace makes every array it uses.
	wantSmall := lp.SolveOnPoisonedWorkspace(small)[0]
	if want.Status != lp.Optimal || wantSmall.Status != lp.Optimal {
		t.Fatalf("subproblem %v, small LP %v: want both optimal", want.Status, wantSmall.Status)
	}
	same := func(a, b *lp.Solution) bool {
		return a.Status == b.Status && a.Pivots == b.Pivots && slices.Equal(a.X, b.X) && slices.Equal(a.Duals, b.Duals)
	}
	check := func(how string, got []*lp.Solution) {
		t.Helper()
		for i, w := range []*lp.Solution{want, wantSmall, want} {
			if !same(got[i], w) {
				t.Errorf("%s, solve %d: differs from a fresh workspace's (%v, %d pivots; want %v, %d)",
					how, i, got[i].Status, got[i].Pivots, w.Status, w.Pivots)
			}
		}
	}
	check("through the pool", []*lp.Solution{big.Solve(), small.Solve(), big.Solve()})
	check("on a poisoned workspace", lp.SolveOnPoisonedWorkspace(big, small, big))
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
