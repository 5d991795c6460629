package routing

import (
	"fmt"

	"prete/internal/topology"
)

// FlowID identifies a source-destination site pair carrying demand.
type FlowID int

// Flow is a source-destination pair ("a flow" in the paper's terminology).
type Flow struct {
	ID       FlowID
	Src, Dst topology.NodeID
}

// TunnelID identifies a tunnel within a TunnelSet.
type TunnelID int

// Tunnel is an end-to-end path for one flow, annotated with the fibers it
// traverses so a failure scenario is applied with one set intersection.
type Tunnel struct {
	ID     TunnelID
	Flow   FlowID
	Links  Path
	Fibers topology.FiberSet
	// New marks tunnels established reactively by Algorithm 1 in response
	// to a degradation signal (the paper's Y^s_f), as opposed to the
	// pre-established set T_f.
	New bool
}

// AvailableUnder reports whether the tunnel survives when the given fibers
// are cut — membership in T_{f,q} (or Y^s_{f,q}) for failure scenario q.
func (t *Tunnel) AvailableUnder(cut topology.FiberSet) bool { return !t.Fibers.Intersects(cut) }

// UsesFiber reports whether the tunnel's lightpath crosses fiber f.
func (t *Tunnel) UsesFiber(f topology.FiberID) bool { return t.Fibers.Has(f) }

// TunnelSet is the tunnel table for a network: all flows and their tunnels.
type TunnelSet struct {
	Net     *topology.Network
	Flows   []Flow
	Tunnels []Tunnel
	byFlow  map[FlowID][]TunnelID
}

// Flows derives the flow set the simulations use: one flow per directed IP
// adjacency (site pairs joined by a direct IP link), which reproduces
// Table 3's tunnel counts (#tunnels = 4 x #IP links for B4 and IBM).
func Flows(n *topology.Network) []Flow {
	var flows []Flow
	seen := make(map[[2]topology.NodeID]bool)
	for _, l := range n.Links {
		key := [2]topology.NodeID{l.Src, l.Dst}
		if seen[key] {
			continue
		}
		seen[key] = true
		flows = append(flows, Flow{ID: FlowID(len(flows)), Src: l.Src, Dst: l.Dst})
	}
	return flows
}

// BuildTunnels constructs perFlow tunnels for every flow, mixing k-shortest
// and fiber-disjoint routing per §4.2/§6.1 ("we generate 4 tunnels using
// both fiber-disjoint routing and k-shortest path").
func BuildTunnels(n *topology.Network, flows []Flow, perFlow int) (*TunnelSet, error) {
	if perFlow < 1 {
		return nil, fmt.Errorf("routing: perFlow must be >= 1, got %d", perFlow)
	}
	ts := &TunnelSet{Net: n, Flows: flows, byFlow: make(map[FlowID][]TunnelID)}
	for _, fl := range flows {
		paths := tunnelPathsForFlow(n, fl.Src, fl.Dst, perFlow)
		if len(paths) == 0 {
			return nil, fmt.Errorf("routing: no path for flow %d (%d->%d)", fl.ID, fl.Src, fl.Dst)
		}
		for _, p := range paths {
			ts.addTunnel(fl.ID, p, false)
		}
	}
	return ts, nil
}

// tunnelPathsForFlow merges fiber-disjoint paths (for survivability) with
// k-shortest paths (for capacity) and deduplicates, capped at perFlow.
func tunnelPathsForFlow(n *topology.Network, src, dst topology.NodeID, perFlow int) []Path {
	disjoint := FiberDisjointPaths(n, src, dst, (perFlow+1)/2, nil)
	shortest := KShortest(n, src, dst, perFlow, nil)
	var out []Path
	seen := make(map[string]bool)
	add := func(p Path) {
		if len(out) >= perFlow {
			return
		}
		k := PathKey(p)
		if seen[k] {
			return
		}
		seen[k] = true
		out = append(out, p)
	}
	for _, p := range disjoint {
		add(p)
	}
	for _, p := range shortest {
		add(p)
	}
	return out
}

func (ts *TunnelSet) addTunnel(flow FlowID, p Path, isNew bool) TunnelID {
	id := TunnelID(len(ts.Tunnels))
	ts.Tunnels = append(ts.Tunnels, Tunnel{
		ID: id, Flow: flow, Links: p,
		Fibers: PathFibers(ts.Net, p),
		New:    isNew,
	})
	ts.byFlow[flow] = append(ts.byFlow[flow], id)
	return id
}

// AddTunnel registers a reactively established tunnel (Algorithm 1 output)
// and returns its ID.
func (ts *TunnelSet) AddTunnel(flow FlowID, p Path) TunnelID {
	return ts.addTunnel(flow, p, true)
}

// TunnelsOf returns the tunnel IDs serving a flow (pre-established first,
// then reactive ones in insertion order).
func (ts *TunnelSet) TunnelsOf(f FlowID) []TunnelID { return ts.byFlow[f] }

// Tunnel returns the tunnel with the given ID.
func (ts *TunnelSet) Tunnel(id TunnelID) *Tunnel { return &ts.Tunnels[int(id)] }

// NumTunnels returns the total tunnel count (Table 3's #Tunnels).
func (ts *TunnelSet) NumTunnels() int { return len(ts.Tunnels) }

// FlowsThroughFiber returns the flows having at least one tunnel whose
// lightpath crosses fiber f — the flows Algorithm 1 must re-tunnel when f
// degrades, and the basis for Fig 1(c)'s "affected flows" metric.
func (ts *TunnelSet) FlowsThroughFiber(f topology.FiberID) []FlowID {
	var out []FlowID
	for _, fl := range ts.Flows {
		for _, tid := range ts.byFlow[fl.ID] {
			if ts.Tunnels[int(tid)].UsesFiber(f) {
				out = append(out, fl.ID)
				break
			}
		}
	}
	return out
}

// TunnelsThroughFiber returns the tunnels crossing fiber f.
func (ts *TunnelSet) TunnelsThroughFiber(f topology.FiberID) []TunnelID {
	var out []TunnelID
	for _, t := range ts.Tunnels {
		if t.UsesFiber(f) {
			out = append(out, t.ID)
		}
	}
	return out
}

// ResidualCoverage reports, for each fiber, whether every flow retains at
// least one available pre-established tunnel when that fiber alone is cut —
// the §4.2 invariant "at least one residual tunnel exists for every flow
// under each failure scenario". It returns the fibers violating it.
func (ts *TunnelSet) ResidualCoverage() []topology.FiberID {
	var violations []topology.FiberID
	for _, f := range ts.Net.Fibers {
		cut := topology.FiberSetOf(f.ID)
		for _, fl := range ts.Flows {
			ok := false
			for _, tid := range ts.byFlow[fl.ID] {
				t := &ts.Tunnels[int(tid)]
				if !t.New && t.AvailableUnder(cut) {
					ok = true
					break
				}
			}
			if !ok {
				violations = append(violations, f.ID)
				break
			}
		}
	}
	return violations
}

// Clone returns a deep copy of the tunnel set; reactive tunnel updates
// operate on clones so that the pre-established table ("its original state",
// §4.2) can be restored after a TE period without a failure.
func (ts *TunnelSet) Clone() *TunnelSet {
	cp := &TunnelSet{
		Net:     ts.Net,
		Flows:   append([]Flow(nil), ts.Flows...),
		Tunnels: make([]Tunnel, len(ts.Tunnels)),
		byFlow:  make(map[FlowID][]TunnelID, len(ts.byFlow)),
	}
	for i, t := range ts.Tunnels {
		cp.Tunnels[i] = Tunnel{
			ID: t.ID, Flow: t.Flow, Links: append(Path(nil), t.Links...),
			Fibers: append(topology.FiberSet(nil), t.Fibers...), New: t.New,
		}
	}
	for f, ids := range ts.byFlow {
		cp.byFlow[f] = append([]TunnelID(nil), ids...)
	}
	return cp
}
