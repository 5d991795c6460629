package core

import (
	"errors"
	"testing"

	"prete/internal/routing"
	"prete/internal/scenario"
	"prete/internal/te"
	"prete/internal/topology"
)

// fuzzReader decodes a fuzz byte stream into network building blocks; every
// decoder is total (an exhausted stream yields zeros), so any input maps to a
// well-formed problem instance.
type fuzzReader struct {
	data []byte
	pos  int
}

func (r *fuzzReader) byte() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

// fuzzInput builds a small connected network — a ring backbone guaranteeing
// every flow a path, plus random chords — with random capacities, failure
// probabilities, demands, and beta.
func fuzzInput(t *testing.T, r *fuzzReader) *te.Input {
	t.Helper()
	nNodes := 2 + int(r.byte())%4
	nodes := make([]topology.Node, nNodes)
	for i := range nodes {
		nodes[i] = topology.Node{ID: topology.NodeID(i), Name: "n"}
	}
	type edge struct{ a, b int }
	edges := make([]edge, 0, nNodes+3)
	if nNodes == 2 {
		edges = append(edges, edge{0, 1})
	} else {
		for i := 0; i < nNodes; i++ {
			edges = append(edges, edge{i, (i + 1) % nNodes})
		}
	}
	for extra := int(r.byte()) % 3; extra > 0; extra-- {
		a := int(r.byte()) % nNodes
		b := int(r.byte()) % nNodes
		if a != b {
			edges = append(edges, edge{a, b})
		}
	}
	fibers := make([]topology.Fiber, len(edges))
	var links []topology.Link
	for i, e := range edges {
		fibers[i] = topology.Fiber{
			ID: topology.FiberID(i),
			A:  topology.NodeID(e.a), B: topology.NodeID(e.b),
			LengthKm: 1 + float64(r.byte()),
		}
		capacity := 0.25 + float64(r.byte())/16 // (0.25, 16.25)
		for _, dir := range [2][2]int{{e.a, e.b}, {e.b, e.a}} {
			links = append(links, topology.Link{
				ID:  topology.LinkID(len(links)),
				Src: topology.NodeID(dir[0]), Dst: topology.NodeID(dir[1]),
				Capacity: capacity, Fibers: []topology.FiberID{topology.FiberID(i)},
			})
		}
	}
	net, err := topology.New("fuzz", nodes, fibers, links)
	if err != nil {
		t.Skip("unbuildable topology:", err)
	}
	nFlows := 1 + int(r.byte())%3
	flows := make([]routing.Flow, 0, nFlows)
	for len(flows) < nFlows {
		src := int(r.byte()) % nNodes
		dst := (src + 1 + int(r.byte())%(nNodes-1)) % nNodes
		flows = append(flows, routing.Flow{
			ID:  routing.FlowID(len(flows)),
			Src: topology.NodeID(src), Dst: topology.NodeID(dst),
		})
	}
	ts, err := routing.BuildTunnels(net, flows, 1+int(r.byte())%3)
	if err != nil {
		t.Skip("unroutable flows:", err)
	}
	probs := make([]float64, len(fibers))
	for i := range probs {
		probs[i] = 0.0005 + float64(r.byte())/5120 // [0.0005, 0.05)
	}
	set, err := scenario.Enumerate(probs, scenario.Options{Cutoff: 1e-9, MaxFailures: 2, MaxScenarios: 50})
	if err != nil {
		t.Skip("unenumerable scenarios:", err)
	}
	demands := make(te.Demands, len(flows))
	for i := range demands {
		demands[i] = float64(r.byte()) / 16 // [0, 16)
	}
	return &te.Input{
		Net: net, Tunnels: ts, Demands: demands, Scenarios: set,
		Beta: 0.5 + float64(r.byte())/512, // [0.5, 1)
	}
}

// FuzzSolveBudget drives the anytime solve with random inputs and random
// budgets: any outcome must be a validation/feasibility error, a typed
// truncation, or a capacity-feasible plan — never a panic, and never an
// allocation that overloads a link (a truncated or fallback result included).
func FuzzSolveBudget(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 2, 4, 100, 8, 50, 2, 1, 0, 2, 1, 9, 9, 9, 30, 40, 50, 1, 0})
	f.Add([]byte{0, 0, 255, 255, 255, 255, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{5, 2, 0, 3, 1, 4, 77, 12, 200, 3, 2, 2, 150, 150, 10, 20, 30, 40, 50, 60, 255, 128})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		in := fuzzInput(t, r)
		// Budget: two bytes of units (0..1023; 0 = unlimited) so small
		// budgets — the interesting truncation range — dominate.
		units := int64(r.byte())<<2 | int64(r.byte())>>6
		o := DefaultOptimizer()
		o.BudgetUnits = units
		res, err := o.Solve(in)
		if err != nil {
			var tr *Truncation
			if errors.As(err, &tr) && tr.Stage == "" {
				t.Fatalf("empty Truncation stage: %v", err)
			}
			return // validation / infeasibility errors are legitimate
		}
		if res.Alloc == nil {
			t.Fatal("nil allocation without error")
		}
		if res.Phi < -1e-9 || res.Phi > 1+1e-9 {
			t.Fatalf("phi %v outside [0,1]", res.Phi)
		}
		if res.Fallback && !res.Truncated {
			t.Fatal("fallback result not flagged truncated")
		}
		if units > 0 && !res.Truncated && res.WorkUnits > units {
			t.Fatalf("untruncated solve spent %d of %d units", res.WorkUnits, units)
		}
		// The core invariant: whatever rung the solve landed on, the plan
		// must respect every link capacity.
		if err := te.CheckCapacity(in.Net, &te.Plan{Alloc: res.Alloc, Tunnels: in.Tunnels}); err != nil {
			t.Fatalf("budget=%d truncated=%v fallback=%v: %v", units, res.Truncated, res.Fallback, err)
		}
	})
}
