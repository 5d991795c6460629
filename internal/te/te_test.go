package te

import (
	"math"
	"testing"

	"prete/internal/routing"
	"prete/internal/scenario"
	"prete/internal/topology"
)

// triangle builds the §2.2 illustrative network: three nodes, three fibers
// of 10 units capacity each, flows s1->s2 and s1->s3.
func triangle(t *testing.T) (*topology.Network, *routing.TunnelSet) {
	t.Helper()
	nodes := []topology.Node{{ID: 0, Name: "s1"}, {ID: 1, Name: "s2"}, {ID: 2, Name: "s3"}}
	fibers := []topology.Fiber{
		{ID: 0, A: 0, B: 1, LengthKm: 100}, // s1s2
		{ID: 1, A: 0, B: 2, LengthKm: 100}, // s1s3
		{ID: 2, A: 1, B: 2, LengthKm: 100}, // s2s3
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
	// Flows: s1->s2 (flow 0) and s1->s3 (flow 1), as in Fig 2.
	flows := []routing.Flow{{ID: 0, Src: 0, Dst: 1}, {ID: 1, Src: 0, Dst: 2}}
	ts, err := routing.BuildTunnels(net, flows, 2)
	if err != nil {
		t.Fatal(err)
	}
	return net, ts
}

func triangleInput(t *testing.T, demand float64) *Input {
	net, ts := triangle(t)
	set, err := scenario.Enumerate([]float64{0.005, 0.009, 0.001}, scenario.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return &Input{
		Net: net, Tunnels: ts,
		Demands:   Demands{demand, demand},
		Scenarios: set,
		Beta:      0.99,
	}
}

func TestInputValidate(t *testing.T) {
	in := triangleInput(t, 5)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *in
	bad.Demands = Demands{1}
	if err := bad.Validate(); err == nil {
		t.Error("mismatched demands accepted")
	}
	bad = *in
	bad.Demands = Demands{-1, 1}
	if err := bad.Validate(); err == nil {
		t.Error("negative demand accepted")
	}
	bad = *in
	bad.Beta = 1
	if err := bad.Validate(); err == nil {
		t.Error("beta = 1 accepted")
	}
	bad = *in
	bad.Net = nil
	if err := bad.Validate(); err == nil {
		t.Error("nil network accepted")
	}
}

func TestDemandsScale(t *testing.T) {
	d := Demands{1, 2}.Scale(2.5)
	if d[0] != 2.5 || d[1] != 5 {
		t.Fatalf("scaled = %v", d)
	}
}

func TestECMPRespectsCapacity(t *testing.T) {
	in := triangleInput(t, 50) // way over capacity
	plan, err := ECMP{}.Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckCapacity(in.Net, plan); err != nil {
		t.Fatal(err)
	}
	if plan.MaxLoss <= 0 {
		t.Fatal("overloaded ECMP should record loss")
	}
}

func TestECMPFullServiceWhenUnderloaded(t *testing.T) {
	in := triangleInput(t, 2)
	plan, err := ECMP{}.Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, fl := range in.Tunnels.Flows {
		if !Satisfied(plan, fl.ID, in.Demands[fl.ID], nil) {
			t.Fatalf("flow %d unsatisfied at low load", fl.ID)
		}
	}
}

func TestMinMaxLossPlanFullCapacity(t *testing.T) {
	// With no failure constraints, the triangle supports 10 units on both
	// flows (the oracle's Fig 3b throughput of 20 total).
	in := triangleInput(t, 10)
	plan, err := MinMaxLossPlan(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.MaxLoss > 1e-6 {
		t.Fatalf("loss = %v, want 0: demand 10+10 fits (Fig 3b)", plan.MaxLoss)
	}
	if err := CheckCapacity(in.Net, plan); err != nil {
		t.Fatal(err)
	}
	for _, fl := range in.Tunnels.Flows {
		if !Satisfied(plan, fl.ID, 10, nil) {
			t.Fatalf("flow %d not served", fl.ID)
		}
	}
}

// TestMinMaxLossPrefersFirstTunnel pins which of the many loss-free plans
// the min-max-loss LP returns: a flow whose demand fits on its first
// (shortest) tunnel is carried there, and only there. The LP itself is
// indifferent — the detour is just as optimal — so this is the solver's
// lowest-index tie-break showing through; Flexile's availability (and
// bench/ref's table) depends on it, because a flow spread over more fibers
// is hit by more cuts.
func TestMinMaxLossPrefersFirstTunnel(t *testing.T) {
	in := triangleInput(t, 4)
	plan, err := MinMaxLossPlan(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, fl := range in.Tunnels.Flows {
		tids := in.Tunnels.TunnelsOf(fl.ID)
		if got := plan.Alloc[tids[0]]; math.Abs(got-4) > 1e-9 {
			t.Errorf("flow %d: first tunnel carries %v, want the whole demand 4", fl.ID, got)
		}
		for _, tid := range tids[1:] {
			if plan.Alloc[tid] != 0 {
				t.Errorf("flow %d: tunnel %d carries %v, want 0", fl.ID, tid, plan.Alloc[tid])
			}
		}
	}
}

func TestMinMaxLossPlanUnderCut(t *testing.T) {
	// Cut fiber 0 (s1s2): flow 0 must detour via s1->s3->s2; both flows
	// then squeeze into fiber 1's 10 units, so at demand 10 each the best
	// max loss is 50% (Fig 2c's situation for TeaVar).
	in := triangleInput(t, 10)
	cut := map[topology.FiberID]bool{0: true}
	plan, err := MinMaxLossPlan(in, cut)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plan.MaxLoss-0.5) > 1e-6 {
		t.Fatalf("loss under cut = %v, want 0.5", plan.MaxLoss)
	}
	if err := CheckCapacity(in.Net, plan); err != nil {
		t.Fatal(err)
	}
}

func TestFFC1SurvivesAnySingleCut(t *testing.T) {
	in := triangleInput(t, 4)
	plan, err := FFC{K: 1}.Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	if plan.MaxLoss > 1e-6 {
		t.Fatalf("FFC-1 loss = %v at demand 4, want 0", plan.MaxLoss)
	}
	for fi := range in.Net.Fibers {
		cut := map[topology.FiberID]bool{topology.FiberID(fi): true}
		for _, fl := range in.Tunnels.Flows {
			if !Satisfied(plan, fl.ID, in.Demands[fl.ID], cut) {
				t.Fatalf("FFC-1 leaves flow %d unprotected under fiber %d cut", fl.ID, fi)
			}
		}
	}
}

func TestFFCMoreConservativeThanUnprotected(t *testing.T) {
	in := triangleInput(t, 10)
	ffc, err := FFC{K: 1}.Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	free, err := MinMaxLossPlan(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ffc.MaxLoss < free.MaxLoss-1e-9 {
		t.Fatalf("FFC loss %v should be >= unprotected loss %v", ffc.MaxLoss, free.MaxLoss)
	}
	if ffc.MaxLoss <= 1e-6 {
		t.Fatal("at demand 10, single-cut protection must cost throughput in the triangle")
	}
	if err := CheckCapacity(in.Net, ffc); err != nil {
		t.Fatal(err)
	}
}

func TestFFCValidation(t *testing.T) {
	in := triangleInput(t, 1)
	if _, err := (FFC{K: 0}).Plan(in); err == nil {
		t.Fatal("K=0 accepted")
	}
}

func TestFFC2OnTriangle(t *testing.T) {
	// Under any double cut in the triangle, some flow is disconnected; FFC-2
	// skips unprotectable scenarios but still protects the protectable ones.
	in := triangleInput(t, 3)
	plan, err := FFC{K: 2}.Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckCapacity(in.Net, plan); err != nil {
		t.Fatal(err)
	}
	// single cuts must still be protected
	for fi := range in.Net.Fibers {
		cut := map[topology.FiberID]bool{topology.FiberID(fi): true}
		for _, fl := range in.Tunnels.Flows {
			if !Satisfied(plan, fl.ID, in.Demands[fl.ID], cut) {
				t.Fatalf("FFC-2 lost single-cut protection for flow %d", fl.ID)
			}
		}
	}
}

// TestMinMaxLossPlanWithCaps checks the capacity override ARROW's
// restoration model plans with: the links that rode a cut fiber come back
// at a fraction of their capacity.
func TestMinMaxLossPlanWithCaps(t *testing.T) {
	in := triangleInput(t, 6)
	restored := func(c float64) map[topology.LinkID]float64 {
		caps := make(map[topology.LinkID]float64)
		for _, lid := range in.Net.LinksOnFiber(0) {
			caps[lid] = c
		}
		return caps
	}
	// Fiber 0 back at 60%: 6 units on s1s2 still carry flow 0 whole.
	plan, err := MinMaxLossPlanWithCaps(in, nil, restored(6))
	if err != nil {
		t.Fatal(err)
	}
	if plan.MaxLoss > 1e-6 {
		t.Fatalf("loss = %v with fiber 0 restored to 6 units, want 0", plan.MaxLoss)
	}
	loads := LinkLoads(plan)
	for _, lid := range in.Net.LinksOnFiber(0) {
		if loads[lid] > 6+1e-6 {
			t.Fatalf("link %d carries %v over its restored capacity 6", lid, loads[lid])
		}
	}
	// Nothing restored: 6+6 = 12 > 10 through the surviving fiber, so loss
	// is unavoidable.
	if plan, err = MinMaxLossPlanWithCaps(in, nil, restored(0)); err != nil {
		t.Fatal(err)
	}
	if plan.MaxLoss < 0.1 {
		t.Fatalf("loss = %v with fiber 0 unrestored, want > 0.1", plan.MaxLoss)
	}
}

// TestMinMaxLossPlanFitsUnderCut is the oracle's per-cut plan on the
// triangle: knowing fiber 0 will be cut, 5+5 = 10 fits the surviving fiber
// exactly (Fig 3c's shape: the oracle keeps full service by pre-moving
// traffic).
func TestMinMaxLossPlanFitsUnderCut(t *testing.T) {
	in := triangleInput(t, 5)
	cut := map[topology.FiberID]bool{0: true}
	plan, err := MinMaxLossPlan(in, cut)
	if err != nil {
		t.Fatal(err)
	}
	if plan.MaxLoss > 1e-6 {
		t.Fatalf("loss = %v under known cut, want 0", plan.MaxLoss)
	}
	for _, fl := range in.Tunnels.Flows {
		if !Satisfied(plan, fl.ID, 5, cut) {
			t.Fatalf("flow %d unserved under the known cut", fl.ID)
		}
	}
}

func TestDeliveredAndLinkLoads(t *testing.T) {
	in := triangleInput(t, 5)
	plan, err := MinMaxLossPlan(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	for lid, load := range LinkLoads(plan) {
		if load < 0 {
			t.Fatalf("negative load on link %d", lid)
		}
	}
	got := Delivered(plan, 0, 5, nil)
	if math.Abs(got-5) > 1e-6 {
		t.Fatalf("delivered = %v, want 5", got)
	}
	// cutting every fiber delivers nothing
	all := map[topology.FiberID]bool{0: true, 1: true, 2: true}
	if got := Delivered(plan, 0, 5, all); got != 0 {
		t.Fatalf("delivered under total cut = %v", got)
	}
}

func TestAllocationClone(t *testing.T) {
	a := Allocation{1: 5}
	b := a.Clone()
	b[1] = 9
	if a[1] != 5 {
		t.Fatal("clone aliases original")
	}
}
