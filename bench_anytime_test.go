package prete

// Anytime-solve benchmarks: how fast the budgeted optimizer reaches its
// first feasible incumbent — the latency that decides which degradation
// rung a deadline-bounded TE round lands on. Each op runs the solve with
// the budget pinned at exactly the first-incumbent work-unit count (learned
// from one unlimited reference solve), so ns/op IS the time-to-first-
// incumbent; the value is also reported under the explicit tti-ns/op unit
// for prete-benchdiff's extra-metric tracking against BENCH_baseline.json.

import (
	"fmt"
	"testing"

	"prete/internal/core"
	"prete/internal/routing"
	"prete/internal/scenario"
	"prete/internal/stats"
	"prete/internal/te"
	"prete/internal/topology"
)

// anytimeInput mirrors the deadline experiment's instance construction.
func anytimeInput(b testing.TB, topo string) *te.Input {
	b.Helper()
	net, err := topology.ByName(topo)
	if err != nil {
		b.Fatal(err)
	}
	ts, err := routing.BuildTunnels(net, routing.Flows(net), 4)
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRNG(2025)
	probs := make([]float64, len(net.Fibers))
	for i := range probs {
		probs[i] = 0.001 + 0.02*rng.Float64()
	}
	set, err := scenario.Enumerate(probs, scenario.Options{Cutoff: 1e-9, MaxFailures: 2, MaxScenarios: 200})
	if err != nil {
		b.Fatal(err)
	}
	demands := make(te.Demands, len(ts.Flows))
	for i := range demands {
		demands[i] = 20 + 10*rng.Float64()
	}
	return &te.Input{Net: net, Tunnels: ts, Demands: demands, Scenarios: set, Beta: 0.99}
}

func benchSolveAnytime(b *testing.B, topo string) {
	in := anytimeInput(b, topo)
	ref, err := core.DefaultOptimizer().Solve(in)
	if err != nil {
		b.Fatal(err)
	}
	if ref.FirstIncumbentUnits <= 0 {
		b.Fatalf("reference solve found no incumbent (work=%d)", ref.WorkUnits)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := core.DefaultOptimizer()
		o.BudgetUnits = ref.FirstIncumbentUnits
		res, err := o.Solve(in)
		if err != nil {
			b.Fatal(err)
		}
		if res.Fallback {
			b.Fatal("fallback at the first-incumbent budget")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "tti-ns/op")
	b.ReportMetric(float64(ref.FirstIncumbentUnits), "tti-units")
}

func BenchmarkSolveAnytimeB4(b *testing.B)  { benchSolveAnytime(b, "B4") }
func BenchmarkSolveAnytimeIBM(b *testing.B) { benchSolveAnytime(b, "IBM") }

// BenchmarkSolveBudgetOverhead pins the cost of budget accounting itself:
// an unlimited budgeted solve vs the historical unbudgeted path is the same
// code with a never-failing atomic spend per pivot, so the pair should tie.
func BenchmarkSolveBudgetOverhead(b *testing.B) {
	in := anytimeInput(b, "B4")
	for _, units := range []int64{0, 1 << 40} {
		b.Run(fmt.Sprintf("budget%d", units), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := core.DefaultOptimizer()
				o.BudgetUnits = units
				if _, err := o.Solve(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestAnytimeReferenceWork pins the B4 reference instance's deterministic
// work: the pivot, node and iteration counts are decided by the exact
// column, row and term order of every LP the solve builds (relaxed masters
// with subproblem cuts and greedy rounding included), so a builder refactor
// that moves any of them shows here.
func TestAnytimeReferenceWork(t *testing.T) {
	ref, err := core.DefaultOptimizer().Solve(anytimeInput(t, "B4"))
	if err != nil {
		t.Fatal(err)
	}
	if ref.WorkUnits != 357 || ref.FirstIncumbentUnits != 202 {
		t.Fatalf("B4 reference solve: %d work units, first incumbent at %d; want 357 and 202", ref.WorkUnits, ref.FirstIncumbentUnits)
	}
}
