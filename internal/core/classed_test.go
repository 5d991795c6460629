package core

import (
	"math"
	"reflect"
	"testing"

	"prete/internal/routing"
	"prete/internal/stats"
	"prete/internal/te"
	"prete/internal/topology"
)

func TestResidualNetwork(t *testing.T) {
	net, _ := triangle(t)
	res := residualNetwork(net, map[topology.LinkID]float64{0: 4, 2: 25})
	if got := res.Link(0).Capacity; got != 6 {
		t.Errorf("link 0 residual = %v, want 6", got)
	}
	if got := res.Link(2).Capacity; got != 0 {
		t.Errorf("link 2 residual = %v, want 0 (clamped)", got)
	}
	if got := res.Link(1).Capacity; got != 10 {
		t.Errorf("link 1 residual = %v, want untouched 10", got)
	}
	if net.Link(0).Capacity != 10 {
		t.Errorf("original network mutated: link 0 = %v", net.Link(0).Capacity)
	}
	if same := residualNetwork(net, nil); same != net {
		t.Error("empty loads should return the input network")
	}
	// Topology indices are shared and still work on the clone.
	if got := len(res.LinksOnFiber(0)); got != 2 {
		t.Errorf("clone LinksOnFiber(0) = %d links, want 2", got)
	}
}

func TestSolveClassedStrictPriority(t *testing.T) {
	in := triangleInput(t, 12, []float64{0.02, 0.01, 0.01}, 0.9)
	opt := DefaultOptimizer()
	spec := te.DefaultClassSpec()
	cr, err := opt.SolveClassedCached(in, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cr.Tiers) != 3 {
		t.Fatalf("got %d tiers, want 3", len(cr.Tiers))
	}
	// The top tier is bit-identical to a uniform solve of its split alone:
	// strict priority means lower tiers cannot influence it.
	topIn := *in
	topIn.Demands = spec.SplitDemands(in.Demands)[0]
	want, err := opt.Solve(&topIn)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cr.Tiers[0].Res, want) {
		t.Errorf("top tier diverges from standalone solve:\n got %+v\nwant %+v", cr.Tiers[0].Res, want)
	}
	// The merged allocation is the per-tunnel sum of the tier allocations
	// and respects the real network's capacity.
	merged := make(te.Allocation)
	for _, tier := range cr.Tiers {
		for tid, amt := range tier.Res.Alloc {
			if amt > 0 {
				merged[tid] += amt
			}
		}
	}
	if !reflect.DeepEqual(merged, cr.Alloc) {
		t.Errorf("merged alloc mismatch:\n got %v\nwant %v", cr.Alloc, merged)
	}
	if err := te.CheckCapacity(in.Net, &te.Plan{Alloc: cr.Alloc, Tunnels: in.Tunnels}); err != nil {
		t.Errorf("merged allocation overloads the network: %v", err)
	}
	// WeightedLoss is a convex combination of the tier losses.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, tier := range cr.Tiers {
		lo = math.Min(lo, tier.Res.Phi)
		hi = math.Max(hi, tier.Res.Phi)
	}
	if cr.WeightedLoss < lo-1e-12 || cr.WeightedLoss > hi+1e-12 {
		t.Errorf("WeightedLoss %v outside tier phi range [%v, %v]", cr.WeightedLoss, lo, hi)
	}
	// Offered per tier sums to the input demand total.
	var offered, total float64
	for _, tier := range cr.Tiers {
		offered += tier.Offered
	}
	for _, d := range in.Demands {
		total += d
	}
	if math.Abs(offered-total) > 1e-9 {
		t.Errorf("tier offered sums to %v, want %v", offered, total)
	}
}

func TestSolveClassedDeterministicAcrossParallelism(t *testing.T) {
	in := triangleInput(t, 12, []float64{0.02, 0.01, 0.015}, 0.9)
	spec := te.DefaultClassSpec()
	opt1 := DefaultOptimizer()
	opt1.Parallelism = 1
	opt4 := DefaultOptimizer()
	opt4.Parallelism = 4
	r1, err := opt1.SolveClassedCached(in, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := opt4.SolveClassedCached(in, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r4) {
		t.Errorf("classed solve differs across parallelism:\n p1 %+v\n p4 %+v", r1, r4)
	}
}

func TestSolveClassedUniformSpecMatchesPlainSolve(t *testing.T) {
	in := triangleInput(t, 8, []float64{0.005, 0.009, 0.001}, 0.99)
	opt := DefaultOptimizer()
	cr, err := opt.SolveClassedCached(in, te.UniformClassSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := opt.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(cr.Tiers) != 1 {
		t.Fatalf("got %d tiers, want 1", len(cr.Tiers))
	}
	if !reflect.DeepEqual(cr.Tiers[0].Res, want) {
		t.Errorf("single-tier classed solve != plain solve")
	}
	if cr.WeightedLoss != want.Phi {
		t.Errorf("WeightedLoss %v != Phi %v", cr.WeightedLoss, want.Phi)
	}
}

func TestSolveClassedCachedMatchesCold(t *testing.T) {
	in := triangleInput(t, 12, []float64{0.02, 0.01, 0.01}, 0.9)
	spec := te.DefaultClassSpec()
	opt := DefaultOptimizer()
	cold, err := opt.SolveClassedCached(in, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	caches := make([]*SolveCache, len(spec.Tiers))
	for i := range caches {
		caches[i] = &SolveCache{}
	}
	first, err := opt.SolveClassedCached(in, spec, caches)
	if err != nil {
		t.Fatal(err)
	}
	second, err := opt.SolveClassedCached(in, spec, caches)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, first) || !reflect.DeepEqual(cold, second) {
		t.Error("cached classed solve diverges from cold solve")
	}
	for k, c := range caches {
		if st := c.Stats(); st.Hits == 0 {
			t.Errorf("tier %d cache never hit: %+v", k, st)
		}
	}
	// Mismatched cache count is rejected, not silently dropped.
	if _, err := opt.SolveClassedCached(in, spec, caches[:1]); err == nil {
		t.Error("want error for wrong cache count")
	}
}

func TestPlanEpochClassed(t *testing.T) {
	net, ts := sparseTriangle(t)
	p := New()
	spec := te.DefaultClassSpec()
	in := EpochInput{
		Net: net, Tunnels: ts,
		Demands: te.Demands{8, 8},
		Beta:    0.9,
		PI:      []float64{0.005, 0.005, 0.005},
		Signals: []DegradationSignal{{Fiber: 0, PNN: 0.9}},
	}
	uni, err := p.PlanEpoch(in)
	if err != nil {
		t.Fatal(err)
	}
	in.Classes = spec
	ep, err := p.PlanEpoch(in)
	if err != nil {
		t.Fatal(err)
	}
	if ep.Classed == nil || len(ep.Classed.Tiers) != 3 {
		t.Fatalf("got %+v, want 3 tier plans", ep.Classed)
	}
	if ep.Update == nil || ep.Update.NewTunnels == 0 {
		t.Error("degradation signal should establish new tunnels (Algorithm 1)")
	}
	// The prep stages are shared with the uniform epoch: same calibration.
	if !reflect.DeepEqual(ep.Calibrated, uni.Calibrated) {
		t.Errorf("calibrated probs diverge: %v vs %v", ep.Calibrated, uni.Calibrated)
	}
	// The protected tier survives the predicted cut: its plan satisfies
	// its split of every flow's demand with fiber 0 down.
	cut := topology.FiberSetOf(0)
	lc := ep.Classed.Tiers[0]
	lcPlan := &te.Plan{Alloc: lc.Res.Alloc, MaxLoss: lc.Res.Phi, Tunnels: ep.Plan.Tunnels}
	for f, d := range lc.Demands {
		if !te.Satisfied(lcPlan, ts.Flows[f].ID, d, cut) {
			t.Errorf("protected tier flow %d unsatisfied under predicted cut (demand %v)", f, d)
		}
	}
}

// scenarioLoss is the definition expectedLoss must reproduce bit for bit:
// te.DeliveredUnder for every (scenario, flow) pair, summed in
// scenario-then-flow order.
func scenarioLoss(in *te.Input, alloc te.Allocation, demands te.Demands, offered float64) float64 {
	if offered <= 0 || in.Scenarios == nil {
		return 0
	}
	plan := &te.Plan{Alloc: alloc, Tunnels: in.Tunnels}
	var carried float64
	for _, q := range in.Scenarios.Scenarios {
		cut := topology.FiberSetOf(q.Cut...)
		var del float64
		for f, d := range demands {
			if d > 0 {
				del += te.DeliveredUnder(plan, routing.FlowID(f), d, cut)
			}
		}
		carried += q.Prob * del
	}
	return min(1, max(0, 1-carried/offered))
}

// TestExpectedLossMatchesScenarioLoop checks the per-class expected loss
// against scenarioLoss bit for bit on B4, IBM and B4 after three
// UpdateTunnels: every tier of a classed solve, and random allocations
// that overfill some flows (so the demand cap is read) and leave others
// empty. The 80 drift epochs are checked in TestSolveClassedDriftPinned.
func TestExpectedLossMatchesScenarioLoop(t *testing.T) {
	b4, ibm := realInput(t, "B4", 11), realInput(t, "IBM", 11)
	updated := *b4
	for _, fiber := range []topology.FiberID{3, 7, 12} {
		res, err := UpdateTunnels(updated.Tunnels, fiber, 1)
		if err != nil {
			t.Fatal(err)
		}
		updated.Tunnels = res.Tunnels
	}
	rng := stats.NewRNG(41)
	for _, tc := range []struct {
		name string
		in   *te.Input
	}{{"B4", b4}, {"IBM", ibm}, {"B4 after three UpdateTunnels", &updated}} {
		cr, err := DefaultOptimizer().SolveClassedCached(tc.in, te.DefaultClassSpec(), nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, tier := range cr.Tiers {
			if want := scenarioLoss(tc.in, tier.Res.Alloc, tier.Demands, tier.Offered); tier.ExpectedLoss != want {
				t.Errorf("%s tier %s: expected loss %v, scenario loop %v", tc.name, tier.Name, tier.ExpectedLoss, want)
			}
		}
		classes := lazyClasses(tc.in, 1)
		var offered float64
		for _, d := range tc.in.Demands {
			offered += d
		}
		for trial := 0; trial < 20; trial++ {
			alloc := make(te.Allocation)
			for _, tun := range tc.in.Tunnels.Tunnels {
				if rng.Float64() < 0.7 {
					alloc[tun.ID] = rng.Float64() * tc.in.Demands[tun.Flow] / 2
				}
			}
			got := expectedLoss(tc.in.Scenarios, classes, alloc, tc.in.Demands, offered)
			if want := scenarioLoss(tc.in, alloc, tc.in.Demands, offered); got != want {
				t.Errorf("%s trial %d: expected loss %v, scenario loop %v", tc.name, trial, got, want)
			}
		}
	}
}
