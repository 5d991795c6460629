package core

import (
	"fmt"

	"prete/internal/scenario"
	"prete/internal/te"
	"prete/internal/topology"
)

// TierResult is one SLO tier's slice of a classed solve.
type TierResult struct {
	// Name and Policy echo the tier's spec entry.
	Name   string
	Policy te.TierPolicy
	// Demands is the tier's share of every flow's demand (the split the
	// solve planned against).
	Demands te.Demands
	// Offered is the tier's total demand in Gbps (the sum of Demands).
	Offered float64
	// Res is the tier's Benders result against the residual network left
	// by all higher-priority tiers.
	Res *Result
	// ExpectedLoss is the tier plan's expected fractional demand loss over
	// the calibrated scenario set (un-enumerated tail charged as full
	// loss), in [0, 1] — the achievable-allocation signal the admission
	// ladder sheds against. Res.Phi is the beta-quantile worst case and
	// saturates at 1 whenever any covered scenario disconnects a flow;
	// ExpectedLoss stays proportional to the traffic actually at risk.
	ExpectedLoss float64
}

// ClassedResult is the outcome of a strict-priority classed solve: one
// Benders result per tier, solved highest priority first, each against the
// capacity left over by the tiers above it.
type ClassedResult struct {
	Tiers []TierResult
	// Alloc is the merged allocation: for every tunnel, the sum of the
	// per-tier allocations — what the controller actually installs.
	Alloc te.Allocation
	// WeightedLoss is the weight-averaged loss bound across tiers
	// (sum w_k * Phi_k / sum w_k), the class-weighted objective value.
	WeightedLoss float64
}

// residualNetwork returns the network with the given per-link loads already
// subtracted from capacity (clamped at zero) — the capacity a lower
// priority tier may plan against. A nil/empty load map returns the input
// unchanged.
func residualNetwork(net *topology.Network, loads map[topology.LinkID]float64) *topology.Network {
	caps := make(map[topology.LinkID]float64, len(loads))
	for lid, load := range loads {
		caps[lid] = max(net.Link(lid).Capacity-load, 0)
	}
	return net.WithCapacities(caps)
}

// SolveClassedCached runs the strict-priority classed solve: the input's
// demands are split across the spec's tiers, and each tier runs the full
// Benders solve (Eqns. 2-8) against the residual network left by every tier
// above it. Strict priority is exact — the top tier's result is
// bit-identical to a uniform solve of its demands alone, and no lower tier
// can degrade it. Each tier solve inherits the optimizer's determinism
// contract, so the whole classed result is bit-identical from run to run.
//
// Each tier has its own cross-epoch SolveCache (caches[k] warms tier k; a
// nil slice or nil entry solves that tier cold). Per-tier caches are
// required because each tier's input fingerprint differs (its demand
// split), so sharing one cache would evict on every tier. The tiers do
// share one class model: classes depend only on the tunnels and the
// scenarios, which every tier plans against alike. It is built when the
// first tier misses its cache, or, when every tier hits, for the expected
// loss.
func (o *Optimizer) SolveClassedCached(in *te.Input, spec *te.ClassSpec, caches []*SolveCache) (*ClassedResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if caches != nil && len(caches) != len(spec.Tiers) {
		return nil, fmt.Errorf("core: %d solve caches for %d tiers", len(caches), len(spec.Tiers))
	}
	reg := o.Metrics
	split := spec.SplitDemands(in.Demands)
	out := &ClassedResult{
		Tiers: make([]TierResult, 0, len(spec.Tiers)),
		Alloc: make(te.Allocation),
	}
	loads := make(map[topology.LinkID]float64)
	classes := lazyClasses(in)
	var wSum, wLoss float64
	for k, tier := range spec.Tiers {
		tierIn := &te.Input{
			Net:       residualNetwork(in.Net, loads),
			Tunnels:   in.Tunnels,
			Demands:   split[k],
			Scenarios: in.Scenarios,
			Beta:      in.Beta,
		}
		var cache *SolveCache
		if caches != nil {
			cache = caches[k]
		}
		res, err := o.solveCached(tierIn, cache, classes)
		if err != nil {
			return nil, fmt.Errorf("core: tier %s: %w", tier.Name, err)
		}
		var offered float64
		for _, d := range split[k] {
			offered += d
		}
		el := expectedLoss(in.Scenarios, classes, res.Alloc, split[k], offered)
		out.Tiers = append(out.Tiers, TierResult{
			Name: tier.Name, Policy: tier.Policy,
			Demands: split[k], Offered: offered, Res: res, ExpectedLoss: el,
		})
		wSum += tier.Weight
		wLoss += tier.Weight * res.Phi
		// Charge this tier's allocation against the network before the next
		// tier plans. Per-link subtraction is order-independent, so the map
		// iteration order inside residualNetwork cannot leak in.
		plan := &te.Plan{Alloc: res.Alloc, Tunnels: in.Tunnels}
		for lid, load := range te.LinkLoads(plan) {
			loads[lid] += load
		}
		for tid, amt := range res.Alloc {
			if amt > 0 {
				out.Alloc[tid] += amt
			}
		}
		reg.Counter("core.class.solves").Inc()
		reg.Gauge("core.class.phi." + tier.Name).Set(res.Phi)
		reg.Gauge("core.class.expected_loss." + tier.Name).Set(el)
	}
	if wSum > 0 {
		out.WeightedLoss = wLoss / wSum
	}
	reg.Gauge("core.class.weighted_loss").Set(out.WeightedLoss)
	return out, nil
}

// expectedLoss integrates the tier plan over the calibrated scenario set:
// 1 - E[delivered Gbps] / offered, with the un-enumerated probability tail
// counted as total loss (only covered scenarios contribute delivered
// mass). A flow delivers the same under every scenario of one class, so
// each class's delivered Gbps is summed once (over Avail, in TunnelsOf
// order, as te.DeliveredUnder sums) and read per (scenario, flow). The sum
// accumulates in scenario-then-flow order, so its rounding is fixed.
func expectedLoss(set *scenario.Set, classes func() *classModel, alloc te.Allocation, demands te.Demands, offered float64) float64 {
	if offered <= 0 || set == nil {
		return 0
	}
	cm := classes()
	deliv := make([]float64, len(cm.classes))
	for ci, c := range cm.classes {
		var sum float64
		for _, tid := range c.Avail {
			sum += alloc[tid]
		}
		if d := demands[c.Flow]; sum > d {
			sum = d
		}
		deliv[ci] = sum
	}
	var carried float64
	for q, sc := range set.Scenarios {
		var del float64
		for f, d := range demands {
			if d > 0 {
				del += deliv[cm.classOf[f][q]]
			}
		}
		carried += sc.Prob * del
	}
	loss := 1 - carried/offered
	if loss < 0 {
		return 0
	}
	if loss > 1 {
		return 1
	}
	return loss
}
