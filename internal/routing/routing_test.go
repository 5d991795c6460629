package routing

import (
	"testing"
	"testing/quick"

	"prete/internal/topology"
)

// lineNet builds a tiny 4-node line+shortcut network:
//
//	0 --- 1 --- 2 --- 3   (fibers 0, 1, 2)
//	 \_________________/  (fiber 3: 0-3 long haul)
func lineNet(t *testing.T) *topology.Network {
	t.Helper()
	nodes := []topology.Node{{ID: 0}, {ID: 1}, {ID: 2}, {ID: 3}}
	fibers := []topology.Fiber{
		{ID: 0, A: 0, B: 1, LengthKm: 100},
		{ID: 1, A: 1, B: 2, LengthKm: 100},
		{ID: 2, A: 2, B: 3, LengthKm: 100},
		{ID: 3, A: 0, B: 3, LengthKm: 1000},
	}
	var links []topology.Link
	add := func(src, dst topology.NodeID, f topology.FiberID) {
		links = append(links, topology.Link{
			ID: topology.LinkID(len(links)), Src: src, Dst: dst,
			Capacity: 100, Fibers: []topology.FiberID{f},
		})
	}
	add(0, 1, 0)
	add(1, 0, 0)
	add(1, 2, 1)
	add(2, 1, 1)
	add(2, 3, 2)
	add(3, 2, 2)
	add(0, 3, 3)
	add(3, 0, 3)
	n, err := topology.New("line", nodes, fibers, links)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestShortestPathPrefersShortFibers(t *testing.T) {
	n := lineNet(t)
	p, ok := shortestPath(n, 0, 3, nil, nil)
	if !ok {
		t.Fatal("no path 0->3")
	}
	if len(p) != 3 {
		t.Fatalf("expected the 3-hop 300km path over the 1000km direct, got %d hops", len(p))
	}
	if err := ValidatePath(n, 0, 3, p); err != nil {
		t.Fatal(err)
	}
}

func TestShortestPathWithBans(t *testing.T) {
	n := lineNet(t)
	// Ban the middle link 1->2: only the direct long-haul remains.
	mid, _ := n.LinkBetween(1, 2)
	bannedLinks := make([]bool, len(n.Links))
	bannedLinks[mid] = true
	p, ok := shortestPath(n, 0, 3, bannedLinks, nil)
	if !ok || len(p) != 1 {
		t.Fatalf("expected the direct path, got %v ok=%v", p, ok)
	}
	// Ban node 1 as intermediate: same.
	bannedNodes := make([]bool, len(n.Nodes))
	bannedNodes[1] = true
	p, ok = shortestPath(n, 0, 3, nil, bannedNodes)
	if !ok || len(p) != 1 {
		t.Fatalf("expected the direct path with node ban, got %v ok=%v", p, ok)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	n := lineNet(t)
	banned := make([]bool, len(n.Links))
	for _, l := range n.Links {
		banned[l.ID] = true
	}
	if _, ok := shortestPath(n, 0, 3, banned, nil); ok {
		t.Fatal("found a path through fully banned network")
	}
}

func TestKShortestOrderedAndLoopless(t *testing.T) {
	n := lineNet(t)
	paths := KShortest(n, 0, 3, 4, nil)
	if len(paths) != 2 {
		t.Fatalf("line net has exactly 2 loopless 0->3 paths, got %d", len(paths))
	}
	w := func(l topology.Link) float64 { return 1 }
	_ = w
	if len(paths[0]) != 3 || len(paths[1]) != 1 {
		t.Fatalf("paths out of cost order: %v", paths)
	}
	for _, p := range paths {
		if err := ValidatePath(n, 0, 3, p); err != nil {
			t.Fatal(err)
		}
		// loopless: no node repeats
		seen := map[topology.NodeID]bool{0: true}
		for _, lid := range p {
			d := n.Link(lid).Dst
			if seen[d] {
				t.Fatalf("loop in path %v", p)
			}
			seen[d] = true
		}
	}
}

func TestKShortestOnB4(t *testing.T) {
	n, err := topology.B4()
	if err != nil {
		t.Fatal(err)
	}
	paths := KShortest(n, 0, 11, 4, nil)
	if len(paths) < 2 {
		t.Fatalf("expected multiple paths across B4, got %d", len(paths))
	}
	for i, p := range paths {
		if err := ValidatePath(n, 0, 11, p); err != nil {
			t.Fatalf("path %d invalid: %v", i, err)
		}
	}
	// strictly deduplicated
	seen := map[string]bool{}
	for _, p := range paths {
		k := PathKey(p)
		if seen[k] {
			t.Fatal("duplicate path returned")
		}
		seen[k] = true
	}
}

func TestFiberDisjointPaths(t *testing.T) {
	n := lineNet(t)
	paths := FiberDisjointPaths(n, 0, 3, 3, nil)
	if len(paths) != 2 {
		t.Fatalf("expected exactly 2 fiber-disjoint 0->3 paths, got %d", len(paths))
	}
	if PathFibers(n, paths[0]).Intersects(PathFibers(n, paths[1])) {
		t.Fatal("paths share a fiber")
	}
}

func TestFlowsMatchAdjacency(t *testing.T) {
	n, err := topology.B4()
	if err != nil {
		t.Fatal(err)
	}
	flows := Flows(n)
	if len(flows) != len(n.Links) {
		t.Fatalf("B4 flows = %d, want %d (one per directed IP adjacency)", len(flows), len(n.Links))
	}
}

func TestBuildTunnelsTable3(t *testing.T) {
	// Table 3: B4 has 208 tunnels, IBM 340, i.e. 4 per flow.
	cases := []struct {
		name string
		want int
	}{{"B4", 208}, {"IBM", 340}}
	for _, c := range cases {
		n, err := topology.ByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		ts, err := BuildTunnels(n, Flows(n), 4)
		if err != nil {
			t.Fatal(err)
		}
		if got := ts.NumTunnels(); got != c.want {
			t.Errorf("%s tunnels = %d, want %d (Table 3)", c.name, got, c.want)
		}
	}
}

func TestTunnelAvailability(t *testing.T) {
	n := lineNet(t)
	ts, err := BuildTunnels(n, Flows(n), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tn := range ts.Tunnels {
		tn.Fibers.Each(func(f topology.FiberID) {
			if tn.AvailableUnder(topology.FiberSetOf(f)) {
				t.Fatalf("tunnel %d claims availability with its own fiber %d cut", tn.ID, f)
			}
		})
		if !tn.AvailableUnder(nil) {
			t.Fatalf("tunnel %d unavailable with no cuts", tn.ID)
		}
	}
}

func TestResidualCoverageOnBuiltins(t *testing.T) {
	for _, name := range []string{"B4", "IBM"} {
		n, err := topology.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ts, err := BuildTunnels(n, Flows(n), 4)
		if err != nil {
			t.Fatal(err)
		}
		if v := ts.ResidualCoverage(); len(v) != 0 {
			t.Errorf("%s: flows lose all tunnels under single cuts of fibers %v", name, v)
		}
	}
}

func TestAddTunnelMarksNew(t *testing.T) {
	n := lineNet(t)
	ts, err := BuildTunnels(n, Flows(n), 1)
	if err != nil {
		t.Fatal(err)
	}
	before := len(ts.TunnelsOf(0))
	p, _ := shortestPath(n, ts.Flows[0].Src, ts.Flows[0].Dst, nil, nil)
	id := ts.AddTunnel(0, p)
	if !ts.Tunnel(id).New {
		t.Fatal("AddTunnel should mark tunnel as reactive")
	}
	if got := len(ts.TunnelsOf(0)); got != before+1 {
		t.Fatalf("flow 0 tunnels = %d, want %d", got, before+1)
	}
}

func TestCloneIsDeep(t *testing.T) {
	n := lineNet(t)
	ts, err := BuildTunnels(n, Flows(n), 2)
	if err != nil {
		t.Fatal(err)
	}
	cp := ts.Clone()
	p, _ := shortestPath(n, ts.Flows[0].Src, ts.Flows[0].Dst, nil, nil)
	cp.AddTunnel(0, p)
	if len(cp.TunnelsOf(0)) == len(ts.TunnelsOf(0)) {
		t.Fatal("clone shares byFlow with original")
	}
	if ts.NumTunnels() == cp.NumTunnels() {
		t.Fatal("clone shares tunnel slice growth with original")
	}
}

func TestFlowsThroughFiber(t *testing.T) {
	n, err := topology.B4()
	if err != nil {
		t.Fatal(err)
	}
	ts, err := BuildTunnels(n, Flows(n), 4)
	if err != nil {
		t.Fatal(err)
	}
	// Fig 1c: a fiber cut affects a substantial share of flows (33% on B4).
	var maxFrac float64
	for _, f := range n.Fibers {
		frac := float64(len(ts.FlowsThroughFiber(f.ID))) / float64(len(ts.Flows))
		if frac > maxFrac {
			maxFrac = frac
		}
	}
	if maxFrac < 0.10 {
		t.Fatalf("max affected-flow fraction = %v; expected a noticeable blast radius", maxFrac)
	}
	for _, f := range n.Fibers {
		for _, tid := range ts.TunnelsThroughFiber(f.ID) {
			if !ts.Tunnel(tid).UsesFiber(f.ID) {
				t.Fatal("TunnelsThroughFiber returned non-crossing tunnel")
			}
		}
	}
}

// Property: every path shortestPath returns is a valid connected walk.
func TestQuickShortestPathValid(t *testing.T) {
	n, err := topology.IBM()
	if err != nil {
		t.Fatal(err)
	}
	nn := len(n.Nodes)
	f := func(a, b uint8) bool {
		src := topology.NodeID(int(a) % nn)
		dst := topology.NodeID(int(b) % nn)
		if src == dst {
			return true
		}
		p, ok := shortestPath(n, src, dst, nil, nil)
		if !ok {
			return false // IBM is connected
		}
		return ValidatePath(n, src, dst, p) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: fiber-disjoint paths never share a fiber, pairwise.
func TestQuickDisjointness(t *testing.T) {
	n, err := topology.B4()
	if err != nil {
		t.Fatal(err)
	}
	nn := len(n.Nodes)
	f := func(a, b uint8) bool {
		src := topology.NodeID(int(a) % nn)
		dst := topology.NodeID(int(b) % nn)
		if src == dst {
			return true
		}
		paths := FiberDisjointPaths(n, src, dst, 4, nil)
		for i := range paths {
			fi := PathFibers(n, paths[i])
			for j := i + 1; j < len(paths); j++ {
				if fi.Intersects(PathFibers(n, paths[j])) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// shortestPath is one search under the fiber-length metric.
func shortestPath(n *topology.Network, src, dst topology.NodeID, bannedLinks, bannedNodes []bool) (Path, bool) {
	var s search
	return s.shortestPath(n, src, dst, lengthWeight(n), bannedLinks, bannedNodes)
}
