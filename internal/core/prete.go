package core

import (
	"fmt"

	"prete/internal/routing"
	"prete/internal/scenario"
	"prete/internal/te"
	"prete/internal/topology"
)

// DegradationSignal is one detected degradation with its NN-predicted
// failure probability (the output of §4.1.1 feeding Fig 8's pipeline).
type DegradationSignal struct {
	Fiber topology.FiberID
	PNN   float64
}

// PreTE is the full system of Fig 8. Configured with Alpha = 0 and
// TunnelRatio = 0 it degenerates to the static probabilistic scheme
// (TeaVaR) exactly as §4.1.2 observes.
type PreTE struct {
	// Opt is the Benders optimizer for Eqns. 2-8.
	Opt *Optimizer
	// Alpha is the fraction of predictable cuts (25% from the paper's
	// measurements); Theorem 4.1 lowers no-degradation probabilities by
	// (1 - Alpha).
	Alpha float64
	// TunnelRatio is the number of new tunnels established per affected
	// tunnel on a degradation signal (§6.4's ratio; 1 by default, 0 for
	// PreTE-naive).
	TunnelRatio float64
	// ScenarioOpts bounds failure-scenario enumeration.
	ScenarioOpts scenario.Options
	label        string
}

// New returns PreTE with the paper's defaults.
func New() *PreTE {
	return &PreTE{
		Opt:          DefaultOptimizer(),
		Alpha:        0.25,
		TunnelRatio:  1,
		ScenarioOpts: scenario.DefaultOptions(),
		label:        "PreTE",
	}
}

// NewNaive returns PreTE-naive (§6.4): degradation-calibrated probabilities
// but no reactive tunnel establishment.
func NewNaive() *PreTE {
	p := New()
	p.TunnelRatio = 0
	p.label = "PreTE-naive"
	return p
}

// NewTeaVar returns the TeaVaR-style static probabilistic scheme: alpha = 0
// (failure probabilities constant across epochs) and no tunnel updates.
func NewTeaVar() *PreTE {
	p := New()
	p.Alpha = 0
	p.TunnelRatio = 0
	p.label = "TeaVar"
	return p
}

// Name implements te.Scheme.
func (p *PreTE) Name() string {
	if p.label == "" {
		return "PreTE"
	}
	return p.label
}

// Plan implements te.Scheme for a pre-built input whose scenario
// probabilities are already calibrated; PlanEpoch is the full pipeline.
func (p *PreTE) Plan(in *te.Input) (*te.Plan, error) {
	res, err := p.Opt.Solve(in)
	if err != nil {
		return nil, err
	}
	return &te.Plan{Alloc: res.Alloc, MaxLoss: res.Phi, Tunnels: in.Tunnels}, nil
}

// EpochInput is the raw state of one TE period before calibration.
type EpochInput struct {
	Net     *topology.Network
	Tunnels *routing.TunnelSet // pre-established tunnels T_f
	Demands te.Demands
	Beta    float64
	// PI are the static per-epoch failure probabilities per fiber.
	PI []float64
	// Signals are the active degradation events with NN predictions;
	// empty on a quiet epoch.
	Signals []DegradationSignal
}

// EpochPlan is the full PreTE output for one TE period.
type EpochPlan struct {
	Plan *te.Plan
	// Update is non-nil when Algorithm 1 ran (degradation present).
	Update *UpdateResult
	// Calibrated are the Eqn. 1 per-fiber failure probabilities used.
	Calibrated []float64
	// Result carries optimizer diagnostics.
	Result *Result
}

// PlanEpoch runs the whole Fig 8 pipeline for one TE period:
//  1. calibrate per-fiber failure probabilities (Eqn. 1);
//  2. on degradation signals, reactively establish new tunnels
//     (Algorithm 1, scaled by TunnelRatio);
//  3. regenerate failure scenarios from the calibrated probabilities;
//  4. solve the unified optimization (Eqns. 2-8) over pre-established and
//     new tunnels with Benders decomposition.
func (p *PreTE) PlanEpoch(in EpochInput) (*EpochPlan, error) {
	prep, err := p.prepareEpoch(in)
	if err != nil {
		return nil, err
	}
	probs, tunnels, update, set := prep.probs, prep.tunnels, prep.update, prep.set
	reg := p.Opt.Metrics
	// Step 4: optimize.
	teIn := &te.Input{
		Net: in.Net, Tunnels: tunnels, Demands: in.Demands,
		Scenarios: set, Beta: in.Beta,
	}
	optT := reg.Timer("core.epoch.optimize")
	optStart := optT.Start()
	res, err := p.Opt.Solve(teIn)
	optT.Stop(optStart)
	if err != nil {
		return nil, err
	}
	return &EpochPlan{
		Plan:       &te.Plan{Alloc: res.Alloc, MaxLoss: res.Phi, Tunnels: tunnels},
		Update:     update,
		Calibrated: probs,
		Result:     res,
	}, nil
}

// epochPrep is the output of the pipeline's pre-optimize stages (calibrate,
// tunnel update, scenario regen), shared by PlanEpoch and PlanEpochClassed.
type epochPrep struct {
	probs   []float64
	tunnels *routing.TunnelSet
	update  *UpdateResult
	set     *scenario.Set
}

// prepareEpoch runs steps 1-3 of the Fig 8 pipeline: Eqn. 1 calibration,
// Algorithm 1 tunnel establishment per signal, and scenario regeneration.
func (p *PreTE) prepareEpoch(in EpochInput) (*epochPrep, error) {
	if len(in.PI) != len(in.Net.Fibers) {
		return nil, fmt.Errorf("core: %d static probabilities for %d fibers", len(in.PI), len(in.Net.Fibers))
	}
	// Stage timers land in the optimizer's registry (nil-safe no-ops when
	// metrics are disabled); results are unaffected.
	reg := p.Opt.Metrics
	// Step 1: Eqn. 1. A TeaVaR configuration (alpha = 0) ignores signals.
	calT := reg.Timer("core.epoch.calibrate")
	calStart := calT.Start()
	degraded := make(map[topology.FiberID]float64, len(in.Signals))
	if p.Alpha > 0 {
		for _, s := range in.Signals {
			degraded[s.Fiber] = s.PNN
		}
	}
	probs, err := scenario.Calibrated(in.PI, degraded, p.Alpha)
	calT.Stop(calStart)
	if err != nil {
		return nil, err
	}
	// Step 2: Algorithm 1 per degraded fiber.
	updT := reg.Timer("core.epoch.tunnel_update")
	updStart := updT.Start()
	tunnels := in.Tunnels
	var update *UpdateResult
	if p.TunnelRatio > 0 {
		for _, s := range in.Signals {
			res, err := UpdateTunnels(tunnels, s.Fiber, p.TunnelRatio)
			if err != nil {
				return nil, err
			}
			if update == nil {
				update = res
			} else {
				update.Tunnels = res.Tunnels
				update.NewTunnels += res.NewTunnels
				update.AffectedFlows = append(update.AffectedFlows, res.AffectedFlows...)
			}
			tunnels = res.Tunnels
		}
	}
	updT.Stop(updStart)
	if update != nil {
		reg.Counter("core.epoch.new_tunnels").Add(int64(update.NewTunnels))
	}
	// Step 3: regenerate the failure scenarios Q_s.
	regenT := reg.Timer("core.epoch.scenario_regen")
	regenStart := regenT.Start()
	set, err := scenario.Enumerate(probs, p.ScenarioOpts)
	regenT.Stop(regenStart)
	if err != nil {
		return nil, err
	}
	return &epochPrep{probs: probs, tunnels: tunnels, update: update, set: set}, nil
}
