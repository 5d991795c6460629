package core

import (
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
}

// New returns PreTE with the paper's defaults.
func New() *PreTE {
	return &PreTE{
		Opt:          DefaultOptimizer(),
		Alpha:        0.25,
		TunnelRatio:  1,
		ScenarioOpts: scenario.DefaultOptions(),
	}
}

// NewTeaVar returns the TeaVaR-style static probabilistic scheme: alpha = 0
// (failure probabilities constant across epochs) and no tunnel updates.
func NewTeaVar() *PreTE {
	p := New()
	p.Alpha = 0
	p.TunnelRatio = 0
	return p
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
	// empty on a quiet epoch. Their order does not matter: the epoch reads
	// them in ascending fiber order, and a fiber listed twice keeps its last
	// prediction.
	Signals []DegradationSignal
	// Classes, when it has more than one tier, splits the demands into SLO
	// tiers for the strict-priority classed solve; nil solves uniformly.
	Classes *te.ClassSpec
}

// EpochPlan is the full PreTE output for one TE period.
type EpochPlan struct {
	// Plan is the allocation to install: the uniform solve's, or the
	// classed solve's merged per-tier allocations (MaxLoss is then the
	// weighted loss).
	Plan *te.Plan
	// Update is the reactive-tunnel episode in force: non-nil while
	// Algorithm 1 tunnels are established for the active signals.
	Update *UpdateResult
	// Calibrated are the Eqn. 1 per-fiber failure probabilities used.
	Calibrated []float64
	// Scenarios is the failure-scenario set enumerated from Calibrated.
	Scenarios *scenario.Set
	// Result carries the uniform solve's optimizer diagnostics; nil for a
	// classed solve.
	Result *Result
	// Classed carries the classed solve's per-tier results; nil for a
	// uniform solve.
	Classed *ClassedResult
}

// PlanEpoch runs the whole Fig 8 pipeline for one TE period as a one-shot
// Loop without caches, so concurrent calls share no mutable state:
//  1. on degradation signals, reactively establish new tunnels
//     (Algorithm 1, scaled by TunnelRatio);
//  2. calibrate per-fiber failure probabilities (Eqn. 1) and regenerate
//     the failure scenarios from them;
//  3. solve the unified optimization (Eqns. 2-8) over pre-established and
//     new tunnels with Benders decomposition.
func (p *PreTE) PlanEpoch(in EpochInput) (*EpochPlan, error) {
	return newLoop(p, in).Plan()
}
