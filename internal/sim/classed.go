package sim

import (
	"fmt"
	"sort"

	"prete/internal/core"
	"prete/internal/te"
	"prete/internal/topology"
	"prete/internal/trace"
)

// ClassedAvailability is a per-tier availability vector: one Availability
// summary per SLO tier, in spec order.
type ClassedAvailability struct {
	Tiers   []string
	PerTier []Availability
}

// StormFibers returns the k most degradation-prone fibers (ties broken by
// fiber index), the deterministic storm set the sloclass experiment
// degrades simultaneously.
func (e *Env) StormFibers(k int) []int {
	idx := make([]int, len(e.PD))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if e.PD[idx[a]] != e.PD[idx[b]] {
			return e.PD[idx[a]] > e.PD[idx[b]]
		}
		return idx[a] < idx[b]
	})
	if k > len(idx) {
		k = len(idx)
	}
	out := append([]int(nil), idx[:k]...)
	sort.Ints(out)
	return out
}

// EvaluateStormUniform measures a uniform (classless) scheme's availability
// conditioned on a degradation storm: the scheme plans one epoch with the
// storm's signals (ignored by TeaVar), and the plan is integrated over the
// storm-conditioned failure distribution. Scheme names: PreTE, PreTE-naive,
// TeaVar. An empty storm is a quiet epoch.
func (ev *Evaluator) EvaluateStormUniform(schemeName string, scale float64, storm []int) (Availability, error) {
	s, err := coreScheme(schemeName)
	if err != nil {
		return Availability{}, err
	}
	demands := ev.Env.BaseDemands.Scale(scale)
	ep, err := ev.stormPlan(s, demands, storm, nil)
	if err != nil {
		return Availability{}, err
	}
	return ev.integrateStorm(storm, ev.creditFor(instant, ep.Plan, demands, demands))
}

// EvaluateStormClassed measures PreTE with per-class demands under a
// degradation storm: one strict-priority classed epoch plan, then each
// tier's plan is judged against its own demand split over the
// storm-conditioned failure distribution. The returned epoch plan carries
// the per-tier solver results (the provable-residual accounting the
// sloclass experiment asserts on). The spec must have more than one tier.
// Deterministic at any Cfg.Parallelism.
func (ev *Evaluator) EvaluateStormClassed(scale float64, storm []int, spec *te.ClassSpec) (ClassedAvailability, *core.EpochPlan, error) {
	if !spec.Enabled() {
		return ClassedAvailability{}, nil, fmt.Errorf("sim: classed storm evaluation needs a multi-tier class spec")
	}
	demands := ev.Env.BaseDemands.Scale(scale)
	ep, err := ev.stormPlan(schemeTable["PreTE"], demands, storm, spec)
	if err != nil {
		return ClassedAvailability{}, nil, err
	}
	out := ClassedAvailability{}
	for _, tier := range ep.Classed.Tiers {
		plan := &te.Plan{Alloc: tier.Res.Alloc, MaxLoss: tier.Res.Phi, Tunnels: ep.Plan.Tunnels}
		a, err := ev.integrateStorm(storm, ev.creditFor(instant, plan, demands, tier.Demands))
		if err != nil {
			return ClassedAvailability{}, nil, err
		}
		out.Tiers = append(out.Tiers, tier.Name)
		out.PerTier = append(out.PerTier, a)
	}
	return out, ep, nil
}

// stormPlan computes one epoch plan under the storm's signals with scheme
// s, classed when spec has more than one tier. The degradation-signal set
// a predictor-driven scheme sees during the storm is one signal per storm
// fiber at the predictor's conditional-failure output.
func (ev *Evaluator) stormPlan(s scheme, demands te.Demands, storm []int, spec *te.ClassSpec) (*core.EpochPlan, error) {
	in := ev.epochInput(demands, nil)
	for _, f := range storm {
		in.Signals = append(in.Signals, core.DegradationSignal{Fiber: topology.FiberID(f), PNN: ev.Quality.clampPHat(ev.Quality.PHatFail)})
	}
	in.Classes = spec
	return ev.planner(s).PlanEpoch(in)
}

// integrateStorm integrates a credit over the truth distribution
// conditioned on a degradation storm — every storm fiber fails with
// trace.PCutGivenDeg, every other fiber with the Theorem 4.1 residual
// probability — as one degradation scenario of weight 1.
func (ev *Evaluator) integrateStorm(storm []int, c credit) (Availability, error) {
	probs := ev.Env.TruthProbs(ev.Cfg, -1)
	for _, f := range storm {
		probs[f] = trace.PCutGivenDeg
	}
	return ev.integrate(1, func(int) ([]world, error) {
		return []world{{1, probs, c}}, nil
	})
}
