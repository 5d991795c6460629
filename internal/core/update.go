// Package core implements PreTE itself (Fig 8): the Eqn. 1 probability
// calibration, Algorithm 1's reactive tunnel updates on degradation
// signals, and the Eqns. 2-8 scenario optimization solved with Benders
// decomposition (Algorithm 2, Appendix A.4/A.5). TeaVaR is available as the
// degenerate configuration the paper identifies in §4.1.2: alpha = 0, no
// degradation handling, static probabilities.
package core

import (
	"fmt"
	"math"

	"prete/internal/routing"
	"prete/internal/topology"
)

// UpdateResult reports what Algorithm 1 did.
type UpdateResult struct {
	// Tunnels is the updated tunnel table (a clone; the pre-established
	// table is untouched so it can be restored after the TE period).
	Tunnels *routing.TunnelSet
	// NewTunnels counts the established tunnels (the serialized-install
	// cost driver of Fig 11b / Fig 16b).
	NewTunnels int
	// AffectedFlows lists flows that had tunnels traversing the degraded
	// fiber.
	AffectedFlows []routing.FlowID
}

// UpdateTunnels is Algorithm 1: for a degradation event on fiber e, delete
// e from the WAN graph, and for every flow f with Lambda > 0 tunnels
// traversing e, establish ceil(ratio * Lambda) new tunnels from the pruned
// graph (so their paths are disjoint with the degraded fiber). ratio = 1
// reproduces the paper's default ("establish new Lambda tunnels"); §6.4
// sweeps it from 0 to 5.
func UpdateTunnels(ts *routing.TunnelSet, degraded topology.FiberID, ratio float64) (*UpdateResult, error) {
	if ratio < 0 {
		return nil, fmt.Errorf("core: negative tunnel ratio %v", ratio)
	}
	net := ts.Net
	if int(degraded) < 0 || int(degraded) >= len(net.Fibers) {
		return nil, fmt.Errorf("core: fiber %d out of range", degraded)
	}
	res := &UpdateResult{Tunnels: ts.Clone()}
	// Step 1: G' = G minus the degraded fiber — ban every IP link riding it.
	banned := make(map[topology.LinkID]bool)
	for _, lid := range net.LinksOnFiber(degraded) {
		banned[lid] = true
	}
	weight := prunedWeight(net, banned)
	for _, fl := range res.Tunnels.Flows {
		// Step 2: Lambda = number of f's tunnels traversing e.
		lambda := 0
		for _, tid := range res.Tunnels.TunnelsOf(fl.ID) {
			if res.Tunnels.Tunnel(tid).UsesFiber(degraded) {
				lambda++
			}
		}
		if lambda == 0 {
			continue
		}
		res.AffectedFlows = append(res.AffectedFlows, fl.ID)
		if ratio == 0 {
			continue // PreTE-naive (§6.4): recalibrate probabilities only
		}
		want := int(math.Ceil(ratio * float64(lambda)))
		existing := make(map[string]bool)
		for _, tid := range res.Tunnels.TunnelsOf(fl.ID) {
			existing[routing.PathKey(res.Tunnels.Tunnel(tid).Links)] = true
		}
		// Establish up to `want` new tunnels from G'. Banned links carry a
		// prohibitive weight so Yen avoids them whenever an alternative
		// exists; any path still touching them is filtered.
		paths := routing.KShortest(net, fl.Src, fl.Dst, want+len(existing), weight)
		added := 0
		for _, p := range paths {
			if added >= want {
				break
			}
			if touchesBanned(p, banned) || existing[routing.PathKey(p)] {
				continue
			}
			existing[routing.PathKey(p)] = true
			res.Tunnels.AddTunnel(fl.ID, p)
			added++
		}
		res.NewTunnels += added
	}
	return res, nil
}

// prunedWeight prices links riding the degraded fiber prohibitively so the
// path search treats them as absent, and every other link by its fiber
// length.
func prunedWeight(net *topology.Network, banned map[topology.LinkID]bool) routing.Weight {
	w := make(routing.Weight, len(net.Links))
	for i, l := range net.Links {
		if banned[l.ID] {
			w[i] = 1e12
			continue
		}
		var km float64
		for _, f := range l.Fibers {
			km += net.Fiber(f).LengthKm
		}
		if km <= 0 {
			km = 1
		}
		w[i] = km
	}
	return w
}

func touchesBanned(p routing.Path, banned map[topology.LinkID]bool) bool {
	for _, lid := range p {
		if banned[lid] {
			return true
		}
	}
	return false
}
