package wan

import (
	"fmt"
	"sync"

	"prete/internal/core"
	"prete/internal/obs"
	"prete/internal/te"
)

// TierDecision is one tier's admission outcome for one epoch. The
// accounting is exact by construction: Shed and Deferred are computed as
// Offered - Admitted (never re-derived), so
// Offered - Admitted - Shed - Deferred is exactly zero in floating point.
type TierDecision struct {
	// Tier echoes the name of the spec entry the decision applied.
	Tier string
	// Rung is the ladder rung taken: "clean" (no uncarriable residual),
	// "protect" / "defer" / "shed" (the tier's policy applied to its
	// residual), or "last-good" (solver unusable; previous decision
	// replayed).
	Rung string
	// Offered is the tier's demand this epoch in Gbps, including any
	// backlog deferred from previous epochs.
	Offered float64
	// Admitted is the Gbps admitted onto the network.
	Admitted float64
	// Shed is the Gbps dropped outright (shed-policy residual).
	Shed float64
	// Deferred is the Gbps held back as backlog for the next epoch
	// (defer-policy residual).
	Deferred float64
	// Phi is the tier's predicted uncarriable fraction — the plan's
	// expected loss over the calibrated scenario set (core
	// TierResult.ExpectedLoss) the residual was derived from.
	Phi float64
}

// AdmissionDecision is one epoch's full admission outcome, one entry per
// tier in spec order.
type AdmissionDecision struct {
	// Degraded reports the epoch ran under a degradation signal.
	Degraded bool
	// LastGood reports the decision replays the previous epoch's numbers
	// because the solver was unusable this epoch.
	LastGood bool
	Tiers    []TierDecision
}

// Check verifies the exact accounting invariant on every tier:
// offered = admitted + shed + deferred, with zero floating-point slack.
func (d *AdmissionDecision) Check() error {
	for _, t := range d.Tiers {
		if r := d.residual(t); r != 0 {
			return fmt.Errorf("wan: tier %s accounting violated: offered %v - admitted %v - shed %v - deferred %v = %v",
				t.Tier, t.Offered, t.Admitted, t.Shed, t.Deferred, r)
		}
		if t.Admitted < 0 || t.Shed < 0 || t.Deferred < 0 {
			return fmt.Errorf("wan: tier %s has a negative component: %+v", t.Tier, t)
		}
	}
	return nil
}

func (d *AdmissionDecision) residual(t TierDecision) float64 {
	return t.Offered - t.Admitted - t.Shed - t.Deferred
}

// Admission is the predictive admission/shedding stage of the class-aware
// degradation ladder. Each epoch under degradation it takes the classed
// solve's per-tier achievable allocations (the calibrated scenario set's
// verdict on what each class can provably carry) and walks the tier order:
// sheddable residual is dropped, deferrable residual becomes backlog
// re-offered next epoch, protected residual is admitted anyway (carried
// degraded), and when no usable solve exists the previous decision replays
// as the last-good rung. Decisions are deterministic functions of the
// solver results and prior decisions — no wall-clock, no randomness — so
// replays are bit-identical.
type Admission struct {
	metrics *obs.Registry
	log     *EventLog

	mu       sync.Mutex
	backlog  []float64
	lastGood *AdmissionDecision
}

// NewAdmission builds the admission stage for a class spec. The registry
// and log may be nil (decisions are then unobserved but identical —
// admission follows the same write-only observability contract as the rest
// of the controller).
func NewAdmission(spec *te.ClassSpec, metrics *obs.Registry, log *EventLog) *Admission {
	return &Admission{
		metrics: metrics,
		log:     log,
		backlog: make([]float64, len(spec.Tiers)),
	}
}

// Decide computes the epoch's admission outcome from a classed solve
// result. The result's tiers must match the spec's (core.SolveClassedCached
// guarantees this). A successful decision becomes the new last-good.
func (a *Admission) Decide(cr *core.ClassedResult, degraded bool) *AdmissionDecision {
	a.mu.Lock()
	defer a.mu.Unlock()
	dec := &AdmissionDecision{Degraded: degraded}
	for k, tier := range cr.Tiers {
		base := tier.Offered
		offered := base + a.backlog[k]
		phi := tier.ExpectedLoss
		if phi < 0 {
			phi = 0
		} else if phi > 1 {
			phi = 1
		}
		td := TierDecision{Tier: tier.Name, Offered: offered, Phi: phi}
		switch {
		case !degraded || phi == 0:
			// No provable residual: admit everything, drain the backlog.
			td.Rung = "clean"
			td.Admitted = offered
			a.backlog[k] = 0
		case tier.Policy == te.PolicyProtect:
			// Protected traffic is never rejected; its residual rides the
			// degraded plan rather than the admission ladder.
			td.Rung = "protect"
			td.Admitted = offered
			a.backlog[k] = 0
		case tier.Policy == te.PolicyDefer:
			// Admit the provably-carriable share of the base demand; the
			// rest (including prior backlog, which the solve never planned
			// for) waits for the next epoch.
			td.Rung = "defer"
			td.Admitted = (1 - phi) * base
			td.Deferred = offered - td.Admitted
			a.backlog[k] = td.Deferred
		default: // te.PolicyShed
			td.Rung = "shed"
			td.Admitted = (1 - phi) * base
			td.Shed = offered - td.Admitted
			a.backlog[k] = 0
		}
		dec.Tiers = append(dec.Tiers, td)
	}
	a.lastGood = dec
	a.observe(dec)
	return dec
}

// DecideLastGood is the ladder's floor: the epoch has no usable solve (or
// the rate push fell back to the previous table), so the previous
// decision's numbers replay verbatim under the "last-good" rung. Backlog is
// left untouched — it already reflects the replayed decision. Returns nil
// when no previous decision exists.
func (a *Admission) DecideLastGood() *AdmissionDecision {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.lastGood == nil {
		return nil
	}
	dec := &AdmissionDecision{Degraded: true, LastGood: true}
	for _, td := range a.lastGood.Tiers {
		td.Rung = "last-good"
		dec.Tiers = append(dec.Tiers, td)
	}
	a.observe(dec)
	return dec
}

// Last returns the last decision Decide computed from a solve (nil before
// the first). A DecideLastGood replay is never stored, so after a
// fallen-back round Last still returns the decision it replayed.
func (a *Admission) Last() *AdmissionDecision {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lastGood
}

// observe emits the decision's event lines and metrics. Event lines carry
// no wall-clock or tick values, so identical decisions render identically —
// the replay-determinism hook the F9 failover row asserts on.
func (a *Admission) observe(dec *AdmissionDecision) {
	a.metrics.Counter("wan.admission.ticks").Inc()
	if dec.Degraded {
		a.metrics.Counter("wan.admission.degraded_ticks").Inc()
	}
	if dec.LastGood {
		a.metrics.Counter("wan.admission.lastgood_ticks").Inc()
	}
	for _, td := range dec.Tiers {
		a.log.Addf("admission tier=%s rung=%s offered=%.3f admitted=%.3f shed=%.3f deferred=%.3f phi=%.4f",
			td.Tier, td.Rung, td.Offered, td.Admitted, td.Shed, td.Deferred, td.Phi)
		a.metrics.Counter("wan.admission.rung." + td.Rung).Inc()
		a.metrics.Gauge("wan.admission.offered." + td.Tier).Set(td.Offered)
		a.metrics.Gauge("wan.admission.admitted." + td.Tier).Set(td.Admitted)
		a.metrics.Gauge("wan.admission.shed." + td.Tier).Set(td.Shed)
		a.metrics.Gauge("wan.admission.deferred." + td.Tier).Set(td.Deferred)
		a.metrics.Gauge("wan.admission.shed_total." + td.Tier).Add(td.Shed)
		a.metrics.Gauge("wan.admission.deferred_total." + td.Tier).Add(td.Deferred)
	}
}
