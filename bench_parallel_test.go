package prete

// Serial-vs-parallel benchmark pairs for the internal/par fan-outs the
// repository's benchmark (bench/, whose eval-b4 workload reports
// sim.table_serial_s and sim.par_speedup for the evaluator) does not time:
// failure-equivalence class construction and the Benders solve's internal
// fan-out. Every benchmark runs
// the same work at Parallelism=1 (the serial path: a plain loop on the
// calling goroutine) and Parallelism=GOMAXPROCS, so
//
//	go test -bench=BenchmarkParallel -benchmem
//
// prints the speedup directly. On a single-core machine the pair is expected
// to tie (the parallel path adds only goroutine bookkeeping).

import (
	"fmt"
	"runtime"
	"testing"

	"prete/internal/core"
	"prete/internal/routing"
	"prete/internal/scenario"
	"prete/internal/stats"
	"prete/internal/te"
	"prete/internal/topology"
)

// parLevels returns the serial/parallel pair every BenchmarkParallel* runs.
func parLevels() []int { return []int{1, runtime.GOMAXPROCS(0)} }

// BenchmarkParallelBuildClasses measures per-flow class construction on IBM
// with a 600-scenario set.
func BenchmarkParallelBuildClasses(b *testing.B) {
	net, err := topology.IBM()
	if err != nil {
		b.Fatal(err)
	}
	ts, err := routing.BuildTunnels(net, routing.Flows(net), 4)
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRNG(5)
	probs := make([]float64, len(net.Fibers))
	for i := range probs {
		probs[i] = 0.001 + 0.02*rng.Float64()
	}
	set, err := scenario.Enumerate(probs, scenario.Options{Cutoff: 1e-9, MaxFailures: 2, MaxScenarios: 600})
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range parLevels() {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if classes := core.BuildClassesP(ts, set, p); len(classes) == 0 {
					b.Fatal("no classes")
				}
			}
		})
	}
}

// BenchmarkParallelBendersIBM measures the full Benders solve on IBM with
// the optimizer's internal fan-out (class construction, structural cuts,
// subproblem coverage rows) at each level.
func BenchmarkParallelBendersIBM(b *testing.B) {
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
	demands := make(te.Demands, len(ts.Flows))
	for i := range demands {
		demands[i] = 60
	}
	for _, p := range parLevels() {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			eng := core.New()
			eng.ScenarioOpts.MaxScenarios = 300
			eng.Opt.Parallelism = p
			for i := 0; i < b.N; i++ {
				if _, err := eng.PlanEpoch(core.EpochInput{
					Net: net, Tunnels: ts, Demands: demands, Beta: 0.99, PI: pi,
					Signals: []core.DegradationSignal{{Fiber: 3, PNN: 0.5}},
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
