package te

import (
	"fmt"

	"prete/internal/routing"
	"prete/internal/topology"
)

// ECMP splits each flow's demand equally across its tunnels ("ECMP [7]
// serves as a baseline"), then scales the whole matrix down uniformly if
// any link would overload. It plans for no failures at all.
type ECMP struct{}

// Plan computes the ECMP split of the input's demands.
func (ECMP) Plan(in *Input) (*Plan, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	alloc := make(Allocation)
	for _, fl := range in.Tunnels.Flows {
		tids := in.Tunnels.TunnelsOf(fl.ID)
		if len(tids) == 0 {
			continue
		}
		share := in.Demands[fl.ID] / float64(len(tids))
		for _, tid := range tids {
			alloc[tid] = share
		}
	}
	plan := &Plan{Alloc: alloc, Tunnels: in.Tunnels}
	// Feasibility: every tunnel's traffic is cut back by its bottleneck
	// link's oversubscription factor, the way per-link fair dropping would
	// behave — overloaded links shed proportionally, uncongested paths are
	// untouched.
	oversub := make(map[topology.LinkID]float64)
	for lid, load := range LinkLoads(plan) {
		if c := in.Net.Link(lid).Capacity; load > c {
			oversub[lid] = load / c
		}
	}
	if len(oversub) > 0 {
		worst := 1.0
		for tid := range alloc {
			factor := 1.0
			for _, lid := range in.Tunnels.Tunnel(tid).Links {
				if f := oversub[lid]; f > factor {
					factor = f
				}
			}
			if factor > 1 {
				alloc[tid] /= factor
				if factor > worst {
					worst = factor
				}
			}
		}
		plan.MaxLoss = 1 - 1/worst
	}
	return plan, nil
}

// FFC is forward fault correction [26]: the allocation must satisfy every
// flow under all failure scenarios with up to K simultaneous fiber cuts
// ("FFC-1" and "FFC-2" in §6.1).
type FFC struct {
	K int
}

// Plan minimizes the largest loss any flow suffers under any cut of up to
// K fibers that leaves it a surviving tunnel.
func (f FFC) Plan(in *Input) (*Plan, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if f.K < 1 {
		return nil, fmt.Errorf("te: FFC needs K >= 1, got %d", f.K)
	}
	cuts := enumerateCuts(len(in.Net.Fibers), f.K)
	var rows []coverageRow
	for _, fl := range in.Tunnels.Flows {
		tids := in.Tunnels.TunnelsOf(fl.ID)
		// Deduplicate scenarios by the surviving tunnel set: two cut sets
		// leaving the flow the same tunnels impose the identical
		// constraint, and on IBM-scale double-failure enumeration this
		// shrinks tens of thousands of rows to a few per flow.
		seen := make(map[string]bool)
		for _, cut := range cuts {
			var avail []routing.TunnelID
			for _, tid := range tids {
				if in.Tunnels.Tunnel(tid).AvailableUnder(cut) {
					avail = append(avail, tid)
				}
			}
			if len(avail) == 0 {
				continue // unprotectable scenario; skipping mirrors FFC's
				// restriction to scenarios with surviving tunnels
			}
			key := string(routing.AppendKey(nil, avail))
			if seen[key] {
				continue
			}
			seen[key] = true
			rows = append(rows, coverageRow{Flow: fl.ID, Tunnels: avail})
		}
	}
	alloc, phi, err := solveMinMaxLoss(in.Net, in.Tunnels, in.Demands, rows, nil)
	if err != nil {
		return nil, err
	}
	return &Plan{Alloc: alloc, MaxLoss: phi, Tunnels: in.Tunnels}, nil
}

// enumerateCuts lists all fiber cut sets of size 0..k.
func enumerateCuts(numFibers, k int) []map[topology.FiberID]bool {
	out := []map[topology.FiberID]bool{{}}
	for i := 0; i < numFibers; i++ {
		out = append(out, map[topology.FiberID]bool{topology.FiberID(i): true})
	}
	if k >= 2 {
		for i := 0; i < numFibers; i++ {
			for j := i + 1; j < numFibers; j++ {
				out = append(out, map[topology.FiberID]bool{
					topology.FiberID(i): true, topology.FiberID(j): true,
				})
			}
		}
	}
	return out
}
