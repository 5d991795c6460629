package topology

import (
	"fmt"
	"sort"

	"prete/internal/stats"
)

// The coded optical topologies follow the networks the paper evaluates
// (§6.1, Table 3): B4 (Google's WAN, 12 sites / 19 fibers) and IBM (18
// sites / 23 fibers) with IP layers expanded per the distributions in
// ARROW [41], plus a synthetic TWAN-scale network (O(50) fibers, O(100) IP
// links; the production topology is confidential).

// fiberSpec is a compact fiber description used by the builders.
type fiberSpec struct {
	a, b   int
	km     float64
	region string
}

var b4Fibers = []fiberSpec{
	{0, 1, 1200, "NA"}, {0, 2, 900, "NA"}, {1, 2, 1100, "NA"},
	{1, 3, 1700, "NA"}, {1, 4, 2400, "NA"}, {2, 4, 2100, "NA"},
	{3, 4, 800, "NA"}, {3, 5, 1500, "EU"}, {3, 6, 1900, "EU"},
	{4, 6, 1300, "EU"}, {5, 7, 700, "EU"}, {6, 7, 600, "EU"},
	{5, 8, 2800, "APAC"}, {7, 9, 2500, "APAC"}, {8, 9, 900, "APAC"},
	{8, 10, 1000, "APAC"}, {9, 11, 1200, "APAC"}, {10, 11, 800, "APAC"},
	{6, 9, 2000, "APAC"},
}

var ibmFibers = []fiberSpec{
	{0, 1, 600, "EAST"}, {0, 2, 900, "EAST"}, {1, 3, 500, "EAST"},
	{2, 3, 700, "EAST"}, {2, 4, 1100, "EAST"}, {3, 5, 1000, "EAST"},
	{4, 5, 400, "EAST"}, {4, 6, 1300, "CENTRAL"}, {5, 7, 1200, "CENTRAL"},
	{6, 7, 600, "CENTRAL"}, {6, 8, 800, "CENTRAL"}, {7, 9, 900, "CENTRAL"},
	{8, 9, 500, "CENTRAL"}, {8, 10, 1100, "CENTRAL"}, {9, 11, 1000, "CENTRAL"},
	{10, 11, 700, "WEST"}, {10, 12, 900, "WEST"}, {11, 13, 1200, "WEST"},
	{12, 13, 600, "WEST"}, {12, 14, 1500, "WEST"}, {13, 15, 1300, "WEST"},
	{14, 16, 800, "WEST"}, {15, 17, 900, "WEST"},
}

// extra connectivity so IBM's western tail is not a tree (every flow must
// keep a residual tunnel under any single cut, §4.2).
var ibmExtraFibers = []fiberSpec{
	{14, 15, 700, "WEST"}, {16, 17, 1000, "WEST"},
}

// B4 returns the B4-like two-layer topology: 12 nodes, 19 fibers, and an IP
// layer expanded to 52 directed links (Table 3).
func B4() (*Network, error) {
	return buildFromSpec("B4", 12, b4Fibers, 52, 0xb4)
}

// IBM returns the IBM-like two-layer topology: 18 nodes, 25 fibers
// (23 published spans plus 2 protection spans that keep every flow
// biconnected), and an IP layer expanded to 85 directed links (Table 3).
func IBM() (*Network, error) {
	spec := append(append([]fiberSpec(nil), ibmFibers...), ibmExtraFibers...)
	return buildFromSpec("IBM", 18, spec, 85, 0x1b3)
}

// TWAN returns a synthetic production-scale topology: a 26-site ring with
// chords yielding ~52 fibers and ~104 directed IP links, the O(50)/O(100)
// scale Table 3 reports for the (confidential) Tencent WAN.
func TWAN(seed uint64) (*Network, error) {
	const nodes = 26
	rng := stats.NewRNG(seed)
	regions := []string{"SOUTH", "NORTH", "OVERSEA"}
	var spec []fiberSpec
	// Backbone ring.
	for i := 0; i < nodes; i++ {
		spec = append(spec, fiberSpec{
			a: i, b: (i + 1) % nodes,
			km:     300 + 200*rng.Float64()*10,
			region: regions[i*len(regions)/nodes],
		})
	}
	// Chords: skip-2 links on even nodes, plus long-haul cross links.
	for i := 0; i < nodes; i += 2 {
		spec = append(spec, fiberSpec{
			a: i, b: (i + 2) % nodes,
			km:     500 + 150*rng.Float64()*10,
			region: regions[i*len(regions)/nodes],
		})
	}
	for i := 0; i < nodes; i += 5 {
		j := (i + nodes/2) % nodes
		if i == j {
			continue
		}
		spec = append(spec, fiberSpec{a: i, b: j, km: 2000 + 500*rng.Float64()*4, region: "OVERSEA"})
	}
	return buildFromSpec("TWAN", nodes, spec, 110, seed)
}

// ByName returns a built-in topology by its Table 3 name.
func ByName(name string) (*Network, error) {
	switch name {
	case "B4", "b4":
		return B4()
	case "IBM", "ibm":
		return IBM()
	case "TWAN", "twan":
		return TWAN(2025)
	default:
		return nil, fmt.Errorf("topology: unknown topology %q (want B4, IBM, or TWAN)", name)
	}
}

// Triangle returns the three-site network of the §2.2 example (Fig 2a) and
// the §5 testbed: sites s1, s2 and s3, one 100 km fiber per pair (s1-s2,
// s1-s3, s2-s3, in that order) and one IP link each way on each fiber,
// every link of the given capacity.
func Triangle(capacity float64) (*Network, error) {
	nodes := []Node{{ID: 0, Name: "s1"}, {ID: 1, Name: "s2"}, {ID: 2, Name: "s3"}}
	var fibers []Fiber
	var links []Link
	for i, pair := range [][2]NodeID{{0, 1}, {0, 2}, {1, 2}} {
		f := FiberID(i)
		fibers = append(fibers, Fiber{ID: f, A: pair[0], B: pair[1], LengthKm: 100, Region: "testbed", Vendor: "voa"})
		links = append(links,
			Link{ID: LinkID(2 * i), Src: pair[0], Dst: pair[1], Capacity: capacity, Fibers: []FiberID{f}},
			Link{ID: LinkID(2*i + 1), Src: pair[1], Dst: pair[0], Capacity: capacity, Fibers: []FiberID{f}})
	}
	return New("triangle", nodes, fibers, links)
}

// buildFromSpec constructs the two-layer network: one node per site, the
// given fiber spans, direct IP links in both directions on every fiber, and
// deterministic "express" IP links over two-fiber lightpaths until the IP
// layer reaches targetLinks.
func buildFromSpec(name string, numNodes int, spec []fiberSpec, targetLinks int, seed uint64) (*Network, error) {
	rng := stats.NewRNG(seed)
	nodes := make([]Node, numNodes)
	for i := range nodes {
		nodes[i] = Node{ID: NodeID(i), Name: fmt.Sprintf("%s-s%d", name, i+1)}
	}
	vendors := []string{"vendorA", "vendorB", "vendorC"}
	fibers := make([]Fiber, len(spec))
	adj := make(map[NodeID][]NodeID)
	for i, s := range spec {
		fibers[i] = Fiber{
			ID: FiberID(i), A: NodeID(s.a), B: NodeID(s.b),
			LengthKm: s.km, Region: s.region,
			Vendor: vendors[rng.Intn(len(vendors))],
		}
		nodes[s.a].Region = s.region
		if nodes[s.b].Region == "" {
			nodes[s.b].Region = s.region
		}
		adj[NodeID(s.a)] = append(adj[NodeID(s.a)], NodeID(s.b))
		adj[NodeID(s.b)] = append(adj[NodeID(s.b)], NodeID(s.a))
	}
	var links []Link
	addLink := func(src, dst NodeID, capacity float64, path []FiberID) {
		links = append(links, Link{
			ID: LinkID(len(links)), Src: src, Dst: dst,
			Capacity: capacity, Fibers: path,
		})
	}
	// Direct links: both directions on each fiber. Capacities are multiples
	// of the 100 Gbps wavelength (§5), sized so that a busy fiber carries
	// multiple Tbps of IP capacity (Fig 1b).
	for _, f := range fibers {
		capGbps := 100 * float64(8+rng.Intn(13)) // 800-2000 Gbps
		addLink(f.A, f.B, capGbps, []FiberID{f.ID})
		addLink(f.B, f.A, capGbps, []FiberID{f.ID})
	}
	if len(links) > targetLinks {
		return nil, fmt.Errorf("topology: %s has %d direct links, above target %d", name, len(links), targetLinks)
	}
	// Express links: lightpaths over two fiber spans between nodes at
	// optical distance 2, in canonical order for determinism.
	type pair struct{ a, b NodeID }
	var candidates []pair
	for a := NodeID(0); int(a) < numNodes; a++ {
		for b := NodeID(0); int(b) < numNodes; b++ {
			if a == b {
				continue
			}
			if _, direct := fiberOf(spec, a, b); direct {
				continue
			}
			if mid, ok := commonNeighbor(adj, a, b); ok {
				_ = mid
				candidates = append(candidates, pair{a, b})
			}
		}
	}
	sort.Slice(candidates, func(i, j int) bool {
		if candidates[i].a != candidates[j].a {
			return candidates[i].a < candidates[j].a
		}
		return candidates[i].b < candidates[j].b
	})
	for _, p := range candidates {
		if len(links) >= targetLinks {
			break
		}
		mid, _ := commonNeighbor(adj, p.a, p.b)
		f1, ok1 := fiberOf(spec, p.a, mid)
		f2, ok2 := fiberOf(spec, mid, p.b)
		if !ok1 || !ok2 {
			continue
		}
		capGbps := 100 * float64(4+rng.Intn(5)) // 400-800 Gbps
		addLink(p.a, p.b, capGbps, []FiberID{FiberID(f1), FiberID(f2)})
	}
	if len(links) != targetLinks {
		return nil, fmt.Errorf("topology: %s expanded to %d IP links, want %d", name, len(links), targetLinks)
	}
	return New(name, nodes, fibers, links)
}

// fiberOf returns the spec index of the fiber joining a and b.
func fiberOf(spec []fiberSpec, a, b NodeID) (int, bool) {
	for i, s := range spec {
		if (NodeID(s.a) == a && NodeID(s.b) == b) || (NodeID(s.a) == b && NodeID(s.b) == a) {
			return i, true
		}
	}
	return 0, false
}

// commonNeighbor returns the lowest-numbered node adjacent to both a and b.
func commonNeighbor(adj map[NodeID][]NodeID, a, b NodeID) (NodeID, bool) {
	best := NodeID(-1)
	for _, x := range adj[a] {
		for _, y := range adj[b] {
			if x == y && (best == -1 || x < best) {
				best = x
			}
		}
	}
	return best, best != -1
}
