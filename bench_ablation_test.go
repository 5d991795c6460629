package prete

// Ablation benchmarks for the design choices DESIGN.md calls out:
//
//   - structural (bottleneck-capacity) cuts seeding the Benders master;
//   - the satisfaction-maximizing polish pass;
//   - failure-equivalence-class merging in FFC (exercised indirectly by
//     comparing FFC-1 against FFC-2, whose row count merging collapses);
//   - Dantzig pricing with the Bland fallback in the simplex (exercised by
//     the degenerate-LP benchmark).
//
// Run with: go test -bench=Ablation -benchmem

import (
	"testing"

	"prete/internal/core"
	"prete/internal/routing"
	"prete/internal/scenario"
	"prete/internal/stats"
	"prete/internal/te"
	"prete/internal/topology"
)

// ablationInput builds a fixed IBM-scale PreTE optimization input with a
// degradation signal (the hardest shape: some classes disconnected).
func ablationInput(b *testing.B) *te.Input {
	b.Helper()
	net, err := topology.IBM()
	if err != nil {
		b.Fatal(err)
	}
	ts, err := routing.BuildTunnels(net, routing.Flows(net), 4)
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRNG(7)
	w := stats.Weibull{Shape: 0.8, Scale: 0.002}
	pi := make([]float64, len(net.Fibers))
	for i := range pi {
		pi[i] = 1.6 * w.Sample(rng)
		if pi[i] > 0.05 {
			pi[i] = 0.05
		}
	}
	degraded := map[topology.FiberID]float64{3: 0.5}
	probs, err := scenario.Calibrated(pi, degraded, 0.25)
	if err != nil {
		b.Fatal(err)
	}
	upd, err := core.UpdateTunnels(ts, 3, 1)
	if err != nil {
		b.Fatal(err)
	}
	set, err := scenario.Enumerate(probs, scenario.Options{Cutoff: 1e-9, MaxFailures: 2, MaxScenarios: 300})
	if err != nil {
		b.Fatal(err)
	}
	demands := make(te.Demands, len(ts.Flows))
	for i := range demands {
		demands[i] = 60
	}
	return &te.Input{Net: net, Tunnels: upd.Tunnels, Demands: demands, Scenarios: set, Beta: 0.99}
}

func benchOptimizer(b *testing.B, opt *core.Optimizer) {
	in := ablationInput(b)
	b.ResetTimer()
	iters := 0
	for i := 0; i < b.N; i++ {
		res, err := opt.Solve(in)
		if err != nil {
			b.Fatal(err)
		}
		iters = res.Iterations
	}
	b.ReportMetric(float64(iters), "benders-iters")
}

// BenchmarkAblationFull is the production configuration.
func BenchmarkAblationFull(b *testing.B) {
	benchOptimizer(b, core.DefaultOptimizer())
}

// BenchmarkAblationNoStructuralCuts shows the cost of dropping the
// bottleneck-capacity seeding cuts.
func BenchmarkAblationNoStructuralCuts(b *testing.B) {
	opt := core.DefaultOptimizer()
	opt.DisableStructuralCuts = true
	benchOptimizer(b, opt)
}

// BenchmarkAblationNoPolish shows the cost (savings) of skipping the
// satisfaction-maximizing re-solve.
func BenchmarkAblationNoPolish(b *testing.B) {
	opt := core.DefaultOptimizer()
	opt.DisablePolish = true
	benchOptimizer(b, opt)
}

// BenchmarkAblationFFCClassMerge measures FFC-2 on IBM, whose tractability
// rests entirely on the per-flow class merging (27k raw coverage rows
// collapse to a few hundred).
func BenchmarkAblationFFCClassMerge(b *testing.B) {
	net, err := topology.IBM()
	if err != nil {
		b.Fatal(err)
	}
	ts, err := routing.BuildTunnels(net, routing.Flows(net), 4)
	if err != nil {
		b.Fatal(err)
	}
	demands := make(te.Demands, len(ts.Flows))
	for i := range demands {
		demands[i] = 60
	}
	in := &te.Input{
		Net: net, Tunnels: ts, Demands: demands, Beta: 0.99,
		Scenarios: &scenario.Set{Scenarios: []scenario.Scenario{{Prob: 1}}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (te.FFC{K: 2}).Plan(in); err != nil {
			b.Fatal(err)
		}
	}
}
