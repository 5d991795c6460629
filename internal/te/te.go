// Package te defines the traffic-engineering abstractions shared by every
// scheme in the evaluation (§6.1's benchmark list) and holds the
// baselines' planning code: ECMP's even split, FFC-1/FFC-2's protected
// allocation, and the min-max-loss plan ARROW, Flexile and the oracle plan
// with (MinMaxLossPlan; ARROW's runs on a copy of the network with the
// partially restored capacities). How each scheme reacts to a cut is internal/sim's
// scheme table. PreTE itself — and TeaVaR, which is exactly PreTE with
// alpha = 0 and no tunnel updates (§4.1.2) — live in internal/core on top
// of the Benders machinery.
package te

import (
	"fmt"

	"prete/internal/routing"
	"prete/internal/scenario"
	"prete/internal/topology"
)

// Demands holds per-flow bandwidth demand in Gbps, indexed by FlowID.
type Demands []float64

// Scale returns the demands multiplied by a factor (the x-axis of Fig 13).
func (d Demands) Scale(f float64) Demands {
	out := make(Demands, len(d))
	for i, v := range d {
		out[i] = v * f
	}
	return out
}

// Allocation is the TE output a_{f,t}: Gbps allocated to each tunnel.
type Allocation map[routing.TunnelID]float64

// Clone deep-copies the allocation.
func (a Allocation) Clone() Allocation {
	out := make(Allocation, len(a))
	for k, v := range a {
		out[k] = v
	}
	return out
}

// Plan is one epoch's TE decision.
type Plan struct {
	Alloc Allocation
	// MaxLoss is the optimized loss bound Phi for schemes that compute it.
	MaxLoss float64
	// Tunnels is the tunnel table the plan was computed against (it may
	// include reactively established tunnels).
	Tunnels *routing.TunnelSet
}

// Input carries everything a scheme needs to plan one epoch.
type Input struct {
	Net     *topology.Network
	Tunnels *routing.TunnelSet
	Demands Demands
	// Scenarios are the failure scenarios the scheme should plan against,
	// with the probabilities it believes (static for TeaVaR-style schemes,
	// Eqn. 1-calibrated for PreTE).
	Scenarios *scenario.Set
	// Beta is the target availability level.
	Beta float64
}

// Validate checks the input's structural consistency.
func (in *Input) Validate() error {
	if in.Net == nil || in.Tunnels == nil {
		return fmt.Errorf("te: nil network or tunnel set")
	}
	if len(in.Demands) != len(in.Tunnels.Flows) {
		return fmt.Errorf("te: %d demands for %d flows", len(in.Demands), len(in.Tunnels.Flows))
	}
	for i, fl := range in.Tunnels.Flows {
		if int(fl.ID) != i {
			return fmt.Errorf("te: flow at position %d has ID %d; flow IDs index the demand matrix and must be positions", i, fl.ID)
		}
	}
	for f, d := range in.Demands {
		if d < 0 {
			return fmt.Errorf("te: negative demand %v for flow %d", d, f)
		}
	}
	if in.Beta <= 0 || in.Beta >= 1 {
		return fmt.Errorf("te: beta %v out of (0,1)", in.Beta)
	}
	return nil
}

// DeliveredUnder returns the bandwidth flow f receives under failure
// scenario cut, given a plan: the sum of allocations on its surviving
// tunnels, in tunnel order, capped at the demand. Constraint (4)'s
// left-hand side.
func DeliveredUnder(p *Plan, f routing.FlowID, demand float64, cut topology.FiberSet) float64 {
	var sum float64
	for _, tid := range p.Tunnels.TunnelsOf(f) {
		if p.Tunnels.Tunnel(tid).AvailableUnder(cut) {
			sum += p.Alloc[tid]
		}
	}
	if sum > demand {
		return demand
	}
	return sum
}

// Delivered is DeliveredUnder with the cut given as a map (a fiber mapped
// to false is not cut): the form the root facade exports.
func Delivered(p *Plan, f routing.FlowID, demand float64, cut map[topology.FiberID]bool) float64 {
	var s topology.FiberSet
	for fb, on := range cut {
		if on {
			s.Add(fb)
		}
	}
	return DeliveredUnder(p, f, demand, s)
}

// Satisfied reports whether flow f's demand is (within tolerance) fully met
// under the scenario.
func Satisfied(p *Plan, f routing.FlowID, demand float64, cut topology.FiberSet) bool {
	const tol = 1e-6
	return DeliveredUnder(p, f, demand, cut) >= demand*(1-tol)-tol
}

// LinkLoads computes the per-link load of an allocation; used to verify
// constraint (3), by the ECMP feasibility scaling and by the classed
// solve's residual network. Tunnels are summed in ascending ID order, so a
// link's load is the same float on every run.
func LinkLoads(p *Plan) map[topology.LinkID]float64 {
	loads := make(map[topology.LinkID]float64)
	for i := range p.Tunnels.Tunnels {
		t := &p.Tunnels.Tunnels[i]
		amt := p.Alloc[t.ID]
		if amt <= 0 {
			continue
		}
		for _, lid := range t.Links {
			loads[lid] += amt
		}
	}
	return loads
}

// CheckCapacity returns an error naming the first overloaded link, if any.
func CheckCapacity(net *topology.Network, p *Plan) error {
	const tol = 1e-6
	for lid, load := range LinkLoads(p) {
		if c := net.Link(lid).Capacity; load > c*(1+tol)+tol {
			return fmt.Errorf("te: link %d overloaded: %.3f > %.3f Gbps", lid, load, c)
		}
	}
	return nil
}
