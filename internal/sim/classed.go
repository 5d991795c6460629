package sim

import (
	"fmt"
	"sort"

	"prete/internal/core"
	"prete/internal/routing"
	"prete/internal/scenario"
	"prete/internal/te"
	"prete/internal/topology"
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

// stormProbs is the truth distribution conditioned on a degradation storm:
// every storm fiber fails with PCutGivenDeg, every other fiber with the
// Theorem 4.1 residual probability.
func (ev *Evaluator) stormProbs(storm []int) []float64 {
	probs := make([]float64, len(ev.Env.PI))
	for i, p := range ev.Env.PI {
		probs[i] = (1 - ev.Cfg.Alpha) * p
	}
	for _, f := range storm {
		probs[f] = ev.Cfg.PCutGivenDeg
	}
	return probs
}

// stormSignals is the degradation-signal set a predictor-driven scheme
// sees during the storm: one signal per storm fiber at the predictor's
// conditional-failure output.
func (ev *Evaluator) stormSignals(storm []int) []core.DegradationSignal {
	sigs := make([]core.DegradationSignal, len(storm))
	for i, f := range storm {
		sigs[i] = core.DegradationSignal{Fiber: topology.FiberID(f), PNN: ev.Quality.clampPHat(ev.Quality.PHatFail)}
	}
	return sigs
}

// EvaluateStormUniform measures a uniform (classless) scheme's availability
// conditioned on a degradation storm: the scheme plans one epoch with the
// storm's signals (ignored by TeaVar), and the plan is integrated over the
// storm-conditioned failure distribution. Scheme names: PreTE, TeaVar. An
// empty storm is a quiet epoch.
func (ev *Evaluator) EvaluateStormUniform(schemeName string, scale float64, storm []int) (Availability, error) {
	demands := ev.Env.BaseDemands.Scale(scale)
	ep, err := ev.stormPlan(schemeName, demands, storm, nil)
	if err != nil {
		return Availability{}, err
	}
	perFlow, err := ev.stormIntegrate(storm, func(f routing.FlowID, cut map[topology.FiberID]bool) bool {
		return te.Satisfied(ep.Plan, f, demands[f], cut)
	})
	if err != nil {
		return Availability{}, err
	}
	return summarize(perFlow), nil
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
	ep, err := ev.stormPlan("PreTE", ev.Env.BaseDemands.Scale(scale), storm, spec)
	if err != nil {
		return ClassedAvailability{}, nil, err
	}
	out := ClassedAvailability{}
	for _, tier := range ep.Classed.Tiers {
		plan := &te.Plan{Alloc: tier.Res.Alloc, MaxLoss: tier.Res.Phi, Tunnels: ep.Plan.Tunnels}
		split := tier.Demands
		perFlow, err := ev.stormIntegrate(storm, func(f routing.FlowID, cut map[topology.FiberID]bool) bool {
			return te.Satisfied(plan, f, split[f], cut)
		})
		if err != nil {
			return ClassedAvailability{}, nil, err
		}
		out.Tiers = append(out.Tiers, tier.Name)
		out.PerTier = append(out.PerTier, summarize(perFlow))
	}
	return out, ep, nil
}

// stormPlan computes one epoch plan under the storm's signals with the
// named scheme (PreTE or TeaVar), classed when spec has more than one tier.
func (ev *Evaluator) stormPlan(schemeName string, demands te.Demands, storm []int, spec *te.ClassSpec) (*core.EpochPlan, error) {
	var p *core.PreTE
	switch schemeName {
	case "PreTE":
		p = core.New()
		p.Alpha = ev.Cfg.Alpha
	case "TeaVar":
		p = core.NewTeaVar()
	default:
		return nil, fmt.Errorf("sim: unknown storm scheme %q (want PreTE or TeaVar)", schemeName)
	}
	p.ScenarioOpts = ev.Cfg.ScenarioOpts
	p.Opt.Metrics = ev.Cfg.Metrics
	p.Opt.BudgetUnits = ev.Cfg.SolveBudget
	p.Opt.Parallelism = ev.Cfg.Parallelism
	return p.PlanEpoch(core.EpochInput{
		Net: ev.Env.Net, Tunnels: ev.Env.Tunnels, Demands: demands,
		Beta: ev.Cfg.Beta, PI: ev.Env.PI,
		Signals: ev.stormSignals(storm),
		Classes: spec,
	})
}

// stormIntegrate integrates a per-flow satisfaction predicate over the
// storm-conditioned failure distribution, returning the per-flow
// availability vector. The un-enumerated failure tail counts as loss, as
// in the main evaluation loop.
func (ev *Evaluator) stormIntegrate(storm []int, ok func(f routing.FlowID, cut map[topology.FiberID]bool) bool) ([]float64, error) {
	fs, err := ev.enumerate(ev.stormProbs(storm))
	if err != nil {
		return nil, err
	}
	ev.metrics().scenarios.Add(int64(len(fs.Scenarios)))
	return integrateScenarios(fs, len(ev.Env.Tunnels.Flows), func(q scenario.Scenario, row []float64) error {
		cut := q.CutSet()
		for fi := range row {
			if ok(routing.FlowID(fi), cut) {
				row[fi] += q.Prob
			}
		}
		return nil
	})
}
