// Package topology models the two-layer WAN PreTE operates on: an optical
// layer of fibers and an IP layer of links riding those fibers. A fiber cut
// removes every IP link whose optical path traverses the fiber (the paper's
// Fig 1b: one cut can erase multiple Tbps of IP capacity), which is what
// couples the optical-layer telemetry to IP-layer traffic engineering.
//
// The package ships coded B4 and IBM optical topologies plus a synthetic
// TWAN-like topology, matching the scale of Table 3.
package topology

import (
	"fmt"
	"sort"
)

// NodeID identifies a site (edge router) in the WAN graph.
type NodeID int

// FiberID identifies a physical fiber span in the optical layer.
type FiberID int

// LinkID identifies a directed IP-layer link.
type LinkID int

// Node is a WAN site.
type Node struct {
	ID     NodeID
	Name   string
	Region string
}

// Fiber is a physical fiber span between two sites. Fibers are undirected:
// a cut severs both directions of every IP link riding it.
type Fiber struct {
	ID       FiberID
	A, B     NodeID
	LengthKm float64
	Region   string
	Vendor   string
	// Conduit groups fibers sharing a physical conduit; the telemetry layer
	// treats fibers in one conduit as a single degradation entity (§3.1).
	// Zero (the default) means the fiber shares no conduit.
	Conduit int
}

// Link is a directed IP-layer link. Capacity is in Gbps. Fibers lists the
// optical spans the link's lightpath traverses (its shared-risk group).
type Link struct {
	ID       LinkID
	Src, Dst NodeID
	Capacity float64
	Fibers   []FiberID
}

// Network is the immutable two-layer WAN graph.
type Network struct {
	Name   string
	Nodes  []Node
	Fibers []Fiber
	Links  []Link

	out         map[NodeID][]LinkID // adjacency: links leaving a node
	linksOnFib  map[FiberID][]LinkID
	linkByPair  map[[2]NodeID]LinkID
	fiberByPair map[[2]NodeID]FiberID
}

// New assembles a Network and builds its indices. It validates that link
// endpoints and fiber references exist.
func New(name string, nodes []Node, fibers []Fiber, links []Link) (*Network, error) {
	n := &Network{
		Name:        name,
		Nodes:       nodes,
		Fibers:      fibers,
		Links:       links,
		out:         make(map[NodeID][]LinkID),
		linksOnFib:  make(map[FiberID][]LinkID),
		linkByPair:  make(map[[2]NodeID]LinkID),
		fiberByPair: make(map[[2]NodeID]FiberID),
	}
	nodeSet := make(map[NodeID]bool, len(nodes))
	for _, nd := range nodes {
		if nodeSet[nd.ID] {
			return nil, fmt.Errorf("topology: duplicate node %d", nd.ID)
		}
		nodeSet[nd.ID] = true
	}
	fiberSet := make(map[FiberID]bool, len(fibers))
	for _, f := range fibers {
		if fiberSet[f.ID] {
			return nil, fmt.Errorf("topology: duplicate fiber %d", f.ID)
		}
		if !nodeSet[f.A] || !nodeSet[f.B] {
			return nil, fmt.Errorf("topology: fiber %d references unknown node", f.ID)
		}
		fiberSet[f.ID] = true
		n.fiberByPair[orient(f.A, f.B)] = f.ID
	}
	for _, l := range links {
		if !nodeSet[l.Src] || !nodeSet[l.Dst] {
			return nil, fmt.Errorf("topology: link %d references unknown node", l.ID)
		}
		if l.Src == l.Dst {
			return nil, fmt.Errorf("topology: link %d is a self-loop", l.ID)
		}
		if l.Capacity <= 0 {
			return nil, fmt.Errorf("topology: link %d has non-positive capacity", l.ID)
		}
		if len(l.Fibers) == 0 {
			return nil, fmt.Errorf("topology: link %d rides no fiber", l.ID)
		}
		for _, f := range l.Fibers {
			if !fiberSet[f] {
				return nil, fmt.Errorf("topology: link %d references unknown fiber %d", l.ID, f)
			}
			n.linksOnFib[f] = append(n.linksOnFib[f], l.ID)
		}
		n.out[l.Src] = append(n.out[l.Src], l.ID)
		n.linkByPair[[2]NodeID{l.Src, l.Dst}] = l.ID
	}
	return n, nil
}

func orient(a, b NodeID) [2]NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]NodeID{a, b}
}

// Link returns the link with the given ID.
func (n *Network) Link(id LinkID) Link { return n.Links[int(id)] }

// Fiber returns the fiber with the given ID.
func (n *Network) Fiber(id FiberID) Fiber { return n.Fibers[int(id)] }

// OutLinks returns the IDs of links leaving node v.
func (n *Network) OutLinks(v NodeID) []LinkID { return n.out[v] }

// LinksOnFiber returns the IP links whose lightpath crosses fiber f — the
// links that fail when f is cut.
func (n *Network) LinksOnFiber(f FiberID) []LinkID { return n.linksOnFib[f] }

// LinkBetween returns the directed link from a to b, if any.
func (n *Network) LinkBetween(a, b NodeID) (LinkID, bool) {
	id, ok := n.linkByPair[[2]NodeID{a, b}]
	return id, ok
}

// FiberBetween returns the fiber directly connecting a and b, if any.
func (n *Network) FiberBetween(a, b NodeID) (FiberID, bool) {
	id, ok := n.fiberByPair[orient(a, b)]
	return id, ok
}

// FailedLinks returns the set of IP links downed by cutting the given fibers.
func (n *Network) FailedLinks(cut FiberSet) map[LinkID]bool {
	failed := make(map[LinkID]bool)
	cut.Each(func(f FiberID) {
		for _, l := range n.linksOnFib[f] {
			failed[l] = true
		}
	})
	return failed
}

// WithCapacities returns a copy of the network whose links in caps carry
// the given capacities instead. Only the Links slice is copied; the indices
// are shared, since none depends on capacity. An empty caps returns n.
func (n *Network) WithCapacities(caps map[LinkID]float64) *Network {
	if len(caps) == 0 {
		return n
	}
	n2 := *n
	n2.Links = append([]Link(nil), n.Links...)
	for lid, c := range caps {
		n2.Links[int(lid)].Capacity = c
	}
	return &n2
}

// LostCapacity returns the total IP capacity (Gbps) erased by cutting fiber
// f — the quantity whose CDF Fig 1(b) reports.
func (n *Network) LostCapacity(f FiberID) float64 {
	var total float64
	for _, l := range n.linksOnFib[f] {
		total += n.Links[int(l)].Capacity
	}
	return total
}

// Regions returns the sorted set of fiber regions present in the network.
func (n *Network) Regions() []string {
	set := make(map[string]bool)
	for _, f := range n.Fibers {
		set[f.Region] = true
	}
	out := make([]string, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// Validate re-checks the structural invariants; useful after tests mutate
// copies of the built-in topologies.
func (n *Network) Validate() error {
	_, err := New(n.Name, n.Nodes, n.Fibers, n.Links)
	return err
}
