package prete

// The benchmark harness regenerates every table and figure of the paper
// (one BenchmarkExp* per artifact, running the experiment in Quick mode)
// and additionally benchmarks the performance-critical components: the
// simplex solver, Benders decomposition at IBM scale, k-shortest routing,
// NN inference, the telemetry detector, scenario enumeration, and
// Algorithm 1's tunnel update.
//
// Run with:
//
//	go test -bench=. -benchmem
//
// Individual artifacts: go test -bench=BenchmarkExpFig13

import (
	"io"
	"testing"

	"prete/internal/core"
	"prete/internal/experiments"
	"prete/internal/lp"
	"prete/internal/ml"
	"prete/internal/optical"
	"prete/internal/routing"
	"prete/internal/scenario"
	"prete/internal/stats"
	"prete/internal/te"
	"prete/internal/telemetry"
	"prete/internal/topology"
	"prete/internal/trace"
)

func benchExp(b *testing.B, id string) {
	b.Helper()
	opts := experiments.Options{Seed: 2025, Quick: true}
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(id, io.Discard, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// One bench per paper artifact (Table/Figure), per DESIGN.md's experiment
// index.
func BenchmarkExpFig1a(b *testing.B)  { benchExp(b, "fig1a") }
func BenchmarkExpFig1b(b *testing.B)  { benchExp(b, "fig1b") }
func BenchmarkExpFig1c(b *testing.B)  { benchExp(b, "fig1c") }
func BenchmarkExpFig237(b *testing.B) { benchExp(b, "fig237") }
func BenchmarkExpFig4a(b *testing.B)  { benchExp(b, "fig4a") }
func BenchmarkExpFig4b(b *testing.B)  { benchExp(b, "fig4b") }
func BenchmarkExpFig5a(b *testing.B)  { benchExp(b, "fig5a") }
func BenchmarkExpFig5b(b *testing.B)  { benchExp(b, "fig5b") }
func BenchmarkExpFig6(b *testing.B)   { benchExp(b, "fig6") }
func BenchmarkExpTab1(b *testing.B)   { benchExp(b, "tab1") }
func BenchmarkExpTab67(b *testing.B)  { benchExp(b, "tab6-7") }
func BenchmarkExpFig11(b *testing.B)  { benchExp(b, "fig11") }
func BenchmarkExpTab3(b *testing.B)   { benchExp(b, "tab3") }
func BenchmarkExpFig12(b *testing.B)  { benchExp(b, "fig12") }
func BenchmarkExpFig13(b *testing.B)  { benchExp(b, "fig13") }
func BenchmarkExpTab4(b *testing.B)   { benchExp(b, "tab4") }
func BenchmarkExpTab5(b *testing.B)   { benchExp(b, "tab5") }
func BenchmarkExpFig14(b *testing.B)  { benchExp(b, "fig14") }
func BenchmarkExpFig15(b *testing.B)  { benchExp(b, "fig15") }
func BenchmarkExpFig16(b *testing.B)  { benchExp(b, "fig16") }
func BenchmarkExpFig17(b *testing.B)  { benchExp(b, "fig17") }
func BenchmarkExpFig18(b *testing.B)  { benchExp(b, "fig18") }
func BenchmarkExpFig19(b *testing.B)  { benchExp(b, "fig19") }
func BenchmarkExpFig20a(b *testing.B) { benchExp(b, "fig20a") }
func BenchmarkExpFig20b(b *testing.B) { benchExp(b, "fig20b") }
func BenchmarkExpTab8(b *testing.B)   { benchExp(b, "tab8") }

// ---- component microbenchmarks ----

// BenchmarkSimplexTE solves a TE-shaped LP (IBM capacity + coverage rows).
func BenchmarkSimplexTE(b *testing.B) {
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
		demands[i] = 100
	}
	in := &te.Input{
		Net: net, Tunnels: ts, Demands: demands, Beta: 0.99,
		Scenarios: &scenario.Set{Scenarios: []scenario.Scenario{{Prob: 1}}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := te.MinMaxLossPlan(in, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBendersIBM runs the full PreTE optimization at IBM scale with a
// degradation signal.
func BenchmarkBendersIBM(b *testing.B) {
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
	p := core.New()
	p.ScenarioOpts.MaxScenarios = 300
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.PlanEpoch(core.EpochInput{
			Net: net, Tunnels: ts, Demands: demands, Beta: 0.99, PI: pi,
			Signals: []core.DegradationSignal{{Fiber: 3, PNN: 0.5}},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMIPKnapsack measures the branch-and-bound on a 12-item binary
// program.
func BenchmarkMIPKnapsack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := lp.NewMIP()
		var terms []lp.Term
		for j := 0; j < 12; j++ {
			v := m.AddBinaryVar(float64(-(j%5 + 1)))
			terms = append(terms, lp.Term{Var: v, Coeff: float64(j%3 + 1)})
		}
		m.AddConstraint(terms, lp.LE, 9)
		if sol := m.SolveMIP(lp.MIPOptions{}); sol.Status != lp.Optimal {
			b.Fatalf("status %v", sol.Status)
		}
	}
}

// BenchmarkKShortestB4 measures Yen's algorithm across B4.
func BenchmarkKShortestB4(b *testing.B) {
	net, err := topology.B4()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if paths := routing.KShortest(net, 0, 11, 4, nil); len(paths) == 0 {
			b.Fatal("no paths")
		}
	}
}

// BenchmarkTunnelUpdate measures Algorithm 1 on B4.
func BenchmarkTunnelUpdate(b *testing.B) {
	net, err := topology.B4()
	if err != nil {
		b.Fatal(err)
	}
	ts, err := routing.BuildTunnels(net, routing.Flows(net), 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.UpdateTunnels(ts, 0, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenarioEnumerate measures failure-scenario generation for 50
// fibers with doubles.
func BenchmarkScenarioEnumerate(b *testing.B) {
	probs := make([]float64, 50)
	rng := stats.NewRNG(3)
	w := stats.Weibull{Shape: 0.8, Scale: 0.002}
	for i := range probs {
		probs[i] = w.Sample(rng)
	}
	opts := scenario.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scenario.Enumerate(probs, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNNInference measures a single forward pass of the trained MLP.
func BenchmarkNNInference(b *testing.B) {
	net, err := topology.TWAN(1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := trace.DefaultConfig(1)
	cfg.Days = 60
	tr, err := trace.Generate(cfg, net)
	if err != nil {
		b.Fatal(err)
	}
	train, test, err := tr.Split(0.8)
	if err != nil {
		b.Fatal(err)
	}
	nnCfg := ml.DefaultNNConfig(1)
	nnCfg.Epochs = 3
	nn, err := ml.TrainNN(train, nnCfg)
	if err != nil {
		b.Fatal(err)
	}
	if len(test) == 0 {
		b.Skip("no test examples")
	}
	f := test[0].Features
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.PredictProb(f)
	}
}

// BenchmarkDetector measures per-sample telemetry processing.
func BenchmarkDetector(b *testing.B) {
	f := optical.NewFiberSim(100, stats.NewRNG(1))
	samples := f.HealthySeries(0, 1024)
	det := telemetry.NewDetector(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Observe(samples[i%len(samples)])
	}
}

// BenchmarkTraceYear measures generating a full year-scale trace.
func BenchmarkTraceYear(b *testing.B) {
	net, err := topology.TWAN(1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := trace.DefaultConfig(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.Generate(cfg, net); err != nil {
			b.Fatal(err)
		}
	}
}
