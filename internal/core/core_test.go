package core

import (
	"math"
	"reflect"
	"testing"

	"prete/internal/routing"
	"prete/internal/scenario"
	"prete/internal/stats"
	"prete/internal/te"
	"prete/internal/topology"
)

// triangle replicates the §2.2 network: 3 nodes, 3 fibers x 10 units.
func triangle(t *testing.T) (*topology.Network, *routing.TunnelSet) {
	t.Helper()
	nodes := []topology.Node{{ID: 0, Name: "s1"}, {ID: 1, Name: "s2"}, {ID: 2, Name: "s3"}}
	fibers := []topology.Fiber{
		{ID: 0, A: 0, B: 1, LengthKm: 100},
		{ID: 1, A: 0, B: 2, LengthKm: 100},
		{ID: 2, A: 1, B: 2, LengthKm: 100},
	}
	var links []topology.Link
	add := func(src, dst topology.NodeID, f topology.FiberID) {
		links = append(links, topology.Link{
			ID: topology.LinkID(len(links)), Src: src, Dst: dst,
			Capacity: 10, Fibers: []topology.FiberID{f},
		})
	}
	add(0, 1, 0)
	add(1, 0, 0)
	add(0, 2, 1)
	add(2, 0, 1)
	add(1, 2, 2)
	add(2, 1, 2)
	net, err := topology.New("triangle", nodes, fibers, links)
	if err != nil {
		t.Fatal(err)
	}
	flows := []routing.Flow{{ID: 0, Src: 0, Dst: 1}, {ID: 1, Src: 0, Dst: 2}}
	ts, err := routing.BuildTunnels(net, flows, 2)
	if err != nil {
		t.Fatal(err)
	}
	return net, ts
}

// sparseTriangle matches the §2.2/§3.3 figures exactly: flow s1->s2 starts
// with ONE tunnel (the direct path), so Algorithm 1 has a new path
// (s1->s3->s2) to establish when fiber s1s2 degrades.
func sparseTriangle(t *testing.T) (*topology.Network, *routing.TunnelSet) {
	t.Helper()
	net, _ := triangle(t)
	flows := []routing.Flow{{ID: 0, Src: 0, Dst: 1}, {ID: 1, Src: 0, Dst: 2}}
	ts, err := routing.BuildTunnels(net, flows, 1)
	if err != nil {
		t.Fatal(err)
	}
	return net, ts
}

func triangleInput(t *testing.T, demand float64, probs []float64, beta float64) *te.Input {
	net, ts := triangle(t)
	set, err := scenario.Enumerate(probs, scenario.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return &te.Input{
		Net: net, Tunnels: ts,
		Demands:   te.Demands{demand, demand},
		Scenarios: set, Beta: beta,
	}
}

func TestBuildClasses(t *testing.T) {
	in := triangleInput(t, 5, []float64{0.005, 0.009, 0.001}, 0.99)
	classes := BuildClassesP(in.Tunnels, in.Scenarios, 1)
	// probabilities per flow must sum to the covered mass
	perFlow := make(map[routing.FlowID]float64)
	for _, c := range classes {
		perFlow[c.Flow] += c.Prob
	}
	covered := 0.0
	for _, s := range in.Scenarios.Scenarios {
		covered += s.Prob
	}
	for f, mass := range perFlow {
		if math.Abs(mass-covered) > 1e-9 {
			t.Errorf("flow %d class mass %v != covered %v", f, mass, covered)
		}
	}
	// each flow has at least the "all tunnels" class and a degraded class
	count := make(map[routing.FlowID]int)
	for _, c := range classes {
		count[c.Flow]++
	}
	for f, n := range count {
		if n < 2 {
			t.Errorf("flow %d has only %d classes", f, n)
		}
	}
}

func TestPaperExampleTeaVar(t *testing.T) {
	// §2.2: p = (0.005, 0.009, 0.001), beta = 99%, demands 10+10.
	// TeaVar's optimal admissible traffic is 10 units total: rate-limit
	// both flows so no covered scenario sees loss. At demand 10 per flow
	// the triangle cannot protect both, so Phi > 0; at demand 5 per flow
	// the allocation of Fig 2(b) achieves Phi = 0.
	in5 := triangleInput(t, 5, []float64{0.005, 0.009, 0.001}, 0.99)
	res, err := DefaultOptimizer().Solve(in5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Phi > 1e-6 {
		t.Fatalf("Phi at demand 5 = %v, want 0 (Fig 2b supports 10 total units)", res.Phi)
	}
	// At demand 10 per flow, the per-flow formulation (constraint 5 is
	// "forall f", unlike classic TeaVaR's joint coverage in the §2.2
	// walkthrough) still reaches Phi = 0 by leaving each flow's rarest
	// failure class unselected — but only by saturating the direct fibers,
	// so the selected classes cannot include any single-cut scenario for
	// either direct fiber.
	in10 := triangleInput(t, 10, []float64{0.005, 0.009, 0.001}, 0.99)
	res10, err := DefaultOptimizer().Solve(in10)
	if err != nil {
		t.Fatal(err)
	}
	if res10.Phi > 1e-6 {
		t.Fatalf("Phi at demand 10 = %v under per-flow coverage, want 0", res10.Phi)
	}
	// Tightening beta beyond the deselection headroom forces loss: at
	// beta = 0.999 the fiber-cut classes cannot all be skipped.
	inTight := triangleInput(t, 10, []float64{0.005, 0.009, 0.001}, 0.999)
	resTight, err := DefaultOptimizer().Solve(inTight)
	if err != nil {
		t.Fatal(err)
	}
	if resTight.Phi < 0.1 {
		t.Fatalf("Phi at demand 10, beta 0.999 = %v; protection must cost throughput", resTight.Phi)
	}
}

func TestOracularProbabilities(t *testing.T) {
	// §2.2's oracular system: if link s1s2's failure probability is known
	// to be 0, the optimizer can use its full capacity: demand 10 + 10
	// with protection only for s1s3's failure modes.
	in := triangleInput(t, 10, []float64{0, 0.009, 0.001}, 0.99)
	res, err := DefaultOptimizer().Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	// flow 0 (s1->s2) can ride s1s2 fully; flow 1 (s1->s3) has 10 units
	// over two fiber-disjoint tunnels. With beta=0.99 and only s1s3/s2s3
	// failure modes, full service is achievable by ignoring the rare
	// double-failure scenario.
	if res.Phi > 1e-6 {
		t.Fatalf("oracle Phi = %v, want 0 (total throughput 20, Fig 3b)", res.Phi)
	}
}

func TestBendersMatchesExact(t *testing.T) {
	cases := []struct {
		demand float64
		probs  []float64
		beta   float64
	}{
		{5, []float64{0.005, 0.009, 0.001}, 0.99},
		{8, []float64{0.005, 0.009, 0.001}, 0.99},
		{10, []float64{0.005, 0.009, 0.001}, 0.99},
		{10, []float64{0.05, 0.09, 0.01}, 0.9},
		{12, []float64{0.005, 0.009, 0.001}, 0.995},
	}
	for i, c := range cases {
		in := triangleInput(t, c.demand, c.probs, c.beta)
		benders, err := DefaultOptimizer().Solve(in)
		if err != nil {
			t.Fatalf("case %d benders: %v", i, err)
		}
		exact, err := SolveExact(in, 100000)
		if err != nil {
			t.Fatalf("case %d exact: %v", i, err)
		}
		if math.Abs(benders.Phi-exact.Phi) > 1e-3 {
			t.Errorf("case %d: Benders Phi %v != exact %v", i, benders.Phi, exact.Phi)
		}
	}
}

func TestBendersBoundsAndCapacity(t *testing.T) {
	in := triangleInput(t, 9, []float64{0.01, 0.02, 0.005}, 0.99)
	res, err := DefaultOptimizer().Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.UB < res.LB-1e-6 {
		t.Fatalf("UB %v < LB %v", res.UB, res.LB)
	}
	if res.Iterations < 1 {
		t.Fatal("no iterations recorded")
	}
	plan := &te.Plan{Alloc: res.Alloc, Tunnels: in.Tunnels}
	if err := te.CheckCapacity(in.Net, plan); err != nil {
		t.Fatal(err)
	}
}

func TestInfeasibleBeta(t *testing.T) {
	// beta above the covered scenario mass must be reported, not silently
	// mis-optimized.
	net, ts := triangle(t)
	set, err := scenario.Enumerate([]float64{0.4, 0.4, 0.4}, scenario.Options{
		Cutoff: 0.5, MaxFailures: 1, MaxScenarios: 1, // only the empty scenario, mass ~0.216
	})
	if err != nil {
		t.Fatal(err)
	}
	in := &te.Input{Net: net, Tunnels: ts, Demands: te.Demands{1, 1}, Scenarios: set, Beta: 0.99}
	// Both flows fall short; the error names the lowest-numbered one, every
	// time.
	const want = "core: flow 0 has only 0.216000 scenario mass for beta 0.990000; widen the scenario cutoff"
	for i := 0; i < 20; i++ {
		if _, err := DefaultOptimizer().Solve(in); err == nil || err.Error() != want {
			t.Fatalf("solve %d: error %v, want %q", i, err, want)
		}
	}
}

func TestUpdateTunnelsAlgorithm1(t *testing.T) {
	_, ts := sparseTriangle(t)
	before := ts.NumTunnels()
	// Degrade fiber 0 (s1s2): flow 0's direct tunnel and flow 1's backup
	// tunnel s1->s2->s3 (if present) are affected.
	res, err := UpdateTunnels(ts, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.NewTunnels == 0 {
		t.Fatal("no tunnels established for a degradation on a used fiber")
	}
	if len(res.AffectedFlows) == 0 {
		t.Fatal("no affected flows found")
	}
	// New tunnels must avoid the degraded fiber (the §3.3 example: flow
	// s1s2 gets tunnel s1->s3->s2).
	for _, tn := range res.Tunnels.Tunnels {
		if tn.New && tn.UsesFiber(0) {
			t.Fatalf("reactive tunnel %d still crosses the degraded fiber", tn.ID)
		}
	}
	// Original set untouched: the loop restores it when the episode ends
	// (TestLoopRestoresTunnelsWhenEpisodeEnds).
	if ts.NumTunnels() != before {
		t.Fatal("UpdateTunnels mutated the pre-established table")
	}
}

func TestUpdateTunnelsRatio(t *testing.T) {
	_, ts := sparseTriangle(t)
	zero, err := UpdateTunnels(ts, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if zero.NewTunnels != 0 {
		t.Fatal("ratio 0 should establish nothing (PreTE-naive)")
	}
	if len(zero.AffectedFlows) == 0 {
		t.Fatal("ratio 0 should still report affected flows")
	}
	if _, err := UpdateTunnels(ts, 0, -1); err == nil {
		t.Fatal("negative ratio accepted")
	}
	if _, err := UpdateTunnels(ts, 99, 1); err == nil {
		t.Fatal("out-of-range fiber accepted")
	}
}

func TestUpdateTunnelsOnB4(t *testing.T) {
	net, err := topology.B4()
	if err != nil {
		t.Fatal(err)
	}
	ts, err := routing.BuildTunnels(net, routing.Flows(net), 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := UpdateTunnels(ts, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Fig 1c / §6.3: tens of tunnels per event on B4-scale networks.
	if res.NewTunnels < 5 {
		t.Fatalf("only %d new tunnels on B4", res.NewTunnels)
	}
	for _, tn := range res.Tunnels.Tunnels {
		if !tn.New {
			continue
		}
		if tn.UsesFiber(0) {
			t.Fatal("reactive tunnel crosses the degraded fiber")
		}
		fl := res.Tunnels.Flows[tn.Flow]
		if err := routing.ValidatePath(net, fl.Src, fl.Dst, tn.Links); err != nil {
			t.Fatalf("invalid reactive tunnel: %v", err)
		}
	}
}

// TestPreTEBeatsTeaVarUnderDegradation reproduces the §3.3 example: when
// link s1s2 degrades (high failure probability), PreTE's new tunnels keep
// throughput that TeaVar cannot.
func TestPreTEBeatsTeaVarUnderDegradation(t *testing.T) {
	net, ts := sparseTriangle(t)
	pi := []float64{0.005, 0.009, 0.001}
	signals := []DegradationSignal{{Fiber: 0, PNN: 0.9}}
	demand := te.Demands{5, 5}

	prete := New()
	ep, err := prete.PlanEpoch(EpochInput{
		Net: net, Tunnels: ts, Demands: demand, Beta: 0.99, PI: pi, Signals: signals,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ep.Update == nil || ep.Update.NewTunnels == 0 {
		t.Fatal("PreTE did not establish tunnels on degradation")
	}
	// Calibrated probability of the degraded fiber must be the NN output.
	if ep.Calibrated[0] != 0.9 {
		t.Fatalf("calibrated p(fiber0) = %v, want 0.9", ep.Calibrated[0])
	}
	// Theorem 4.1: others drop by (1 - alpha).
	if math.Abs(ep.Calibrated[1]-0.75*0.009) > 1e-12 {
		t.Fatalf("calibrated p(fiber1) = %v", ep.Calibrated[1])
	}

	teavar := NewTeaVar()
	tvEp, err := teavar.PlanEpoch(EpochInput{
		Net: net, Tunnels: ts, Demands: demand, Beta: 0.99, PI: pi, Signals: signals,
	})
	if err != nil {
		t.Fatal(err)
	}
	// When the degraded fiber actually cuts, PreTE's plan (with its
	// s1->s3->s2 tunnel) still serves both flows; TeaVar loses flow 0's
	// direct-tunnel share (Fig 2c vs Fig 7b).
	cut := map[topology.FiberID]bool{0: true}
	preDelivered := te.Delivered(ep.Plan, 0, 5, cut)
	tvDelivered := te.Delivered(tvEp.Plan, 0, 5, cut)
	if preDelivered < 5-1e-6 {
		t.Fatalf("PreTE delivers %v to the degraded flow after the cut, want 5", preDelivered)
	}
	if tvDelivered >= preDelivered {
		t.Fatalf("TeaVar (%v) should deliver less than PreTE (%v) after the predicted cut", tvDelivered, preDelivered)
	}
}

func TestTeaVarIgnoresSignals(t *testing.T) {
	net, ts := triangle(t)
	pi := []float64{0.005, 0.009, 0.001}
	teavar := NewTeaVar()
	ep, err := teavar.PlanEpoch(EpochInput{
		Net: net, Tunnels: ts, Demands: te.Demands{3, 3}, Beta: 0.99, PI: pi,
		Signals: []DegradationSignal{{Fiber: 0, PNN: 0.9}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ep.Update != nil {
		t.Fatal("TeaVar established tunnels")
	}
	for i, p := range ep.Calibrated {
		if p != pi[i] {
			t.Fatalf("TeaVar calibrated p[%d] = %v, want static %v", i, p, pi[i])
		}
	}
}

func TestPreTENaive(t *testing.T) {
	net, ts := triangle(t)
	naive := New()
	naive.TunnelRatio = 0
	ep, err := naive.PlanEpoch(EpochInput{
		Net: net, Tunnels: ts, Demands: te.Demands{3, 3}, Beta: 0.99,
		PI:      []float64{0.005, 0.009, 0.001},
		Signals: []DegradationSignal{{Fiber: 0, PNN: 0.9}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ep.Update != nil && ep.Update.NewTunnels > 0 {
		t.Fatal("PreTE-naive established tunnels")
	}
	// ...but it still calibrates.
	if ep.Calibrated[0] != 0.9 {
		t.Fatalf("naive calibration = %v", ep.Calibrated[0])
	}
}

func TestPlanEpochValidation(t *testing.T) {
	net, ts := triangle(t)
	p := New()
	if _, err := p.PlanEpoch(EpochInput{
		Net: net, Tunnels: ts, Demands: te.Demands{1, 1}, Beta: 0.99,
		PI: []float64{0.1}, // wrong length
	}); err == nil {
		t.Fatal("mismatched PI accepted")
	}
}

// TestBendersOnIBM exercises production scale: the full IBM topology with
// calibrated probabilities and a degradation.
func TestBendersOnIBM(t *testing.T) {
	if testing.Short() {
		t.Skip("IBM-scale Benders in -short mode")
	}
	net, err := topology.IBM()
	if err != nil {
		t.Fatal(err)
	}
	ts, err := routing.BuildTunnels(net, routing.Flows(net), 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(7)
	w := stats.Weibull{Shape: 0.8, Scale: 0.002}
	pi := make([]float64, len(net.Fibers))
	for i := range pi {
		pi[i] = math.Min(0.05, 1.6*w.Sample(rng))
	}
	demands := make(te.Demands, len(ts.Flows))
	for i := range demands {
		demands[i] = 50
	}
	p := New()
	p.ScenarioOpts.MaxScenarios = 400
	ep, err := p.PlanEpoch(EpochInput{
		Net: net, Tunnels: ts, Demands: demands, Beta: 0.99, PI: pi,
		Signals: []DegradationSignal{{Fiber: 3, PNN: 0.5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := te.CheckCapacity(net, ep.Plan); err != nil {
		t.Fatal(err)
	}
	if ep.Plan.MaxLoss < 0 || ep.Plan.MaxLoss > 1 {
		t.Fatalf("Phi = %v", ep.Plan.MaxLoss)
	}
}

// TestZeroOptimizerSolves pins that the zero Optimizer is the default one:
// on the B4 reference input (the one root's TestAnytimeReferenceWork
// counts), its solve is bit-identical to DefaultOptimizer's.
func TestZeroOptimizerSolves(t *testing.T) {
	in := realInput(t, "B4", 2025)
	want, err := DefaultOptimizer().Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := (&Optimizer{}).Solve(in)
	if err != nil {
		t.Fatalf("zero Optimizer: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("zero Optimizer: phi %v after %d iterations, DefaultOptimizer: phi %v after %d", got.Phi, got.Iterations, want.Phi, want.Iterations)
	}
}
