package core

import (
	"cmp"
	"fmt"
	"slices"

	"prete/internal/routing"
	"prete/internal/scenario"
	"prete/internal/te"
	"prete/internal/telemetry"
	"prete/internal/topology"
)

// Loop is the Fig 8 controller between TE periods, written once: the
// degradation-signal set, the reactive-tunnel episode Algorithm 1 derived
// for it, the epoch's Eqn. 1 calibration and scenario set, and the solve
// caches that carry Benders work across epochs. An epoch is three stages
// run in order — Retunnel, Regenerate, Solve — and Plan runs all three;
// owners that act between stages (programming tunnels, timing each stage)
// call them one by one.
//
// The ordering contract: signals are keyed by fiber and always read in
// ascending fiber order, so Algorithm 1 assigns the same tunnel IDs (and
// the LP sees the same columns) whatever order degradations arrived in;
// and Algorithm 1 re-derives the episode only when the set of signalled
// fibers changed — a new prediction for a signalled fiber recalibrates
// Eqn. 1 but keeps the episode.
//
// A Loop is not safe for concurrent use: its owner serializes its calls,
// except that Signal, Clear and Signals, which touch only the signal set,
// may run while Solve does, because Solve never reads it.
type Loop struct {
	// Demands, PI and Classes are the inputs an owner may change between
	// epochs: the per-flow demands, the static per-fiber failure
	// probabilities p_i, and the SLO tier spec (a multi-tier spec runs the
	// strict-priority classed solve, anything else the uniform one).
	Demands te.Demands
	PI      []float64
	Classes *te.ClassSpec

	p        *PreTE
	net      *topology.Network
	base     *routing.TunnelSet
	beta     float64
	signals  map[topology.FiberID]float64 // fiber -> predicted failure probability
	conduits map[topology.FiberID][]topology.FiberID

	episode *UpdateResult      // Algorithm 1's output for derived; nil: none
	derived []topology.FiberID // the fibers the episode was derived for
	tunnels *routing.TunnelSet // this epoch's tunnels: base plus the episode
	// held are the reactive tunnels the owner may hold: those Retunnel
	// reported added and has not reported retired since. prev is held as it
	// was before the last Retunnel, for Revert and Restore to roll back to;
	// unsent makes the next Retunnel derive and report the episode even if
	// the signalled fibers did not change.
	held, prev []routing.Tunnel
	unsent     bool

	// This epoch's Regenerate outputs, read by Solve.
	probs []float64
	set   *scenario.Set

	cache *SolveCache // nil solves cold
	tiers []*SolveCache
}

// NewLoop returns p's controller loop over in's network, base tunnels,
// demands, beta, p_i and class spec, seeded with in.Signals. Its solves
// reuse work across epochs through warm-start caches.
func NewLoop(p *PreTE, in EpochInput) *Loop {
	l := newLoop(p, in)
	l.cache = &SolveCache{}
	return l
}

// newLoop is NewLoop without caches: every solve is cold.
func newLoop(p *PreTE, in EpochInput) *Loop {
	l := &Loop{
		Demands: in.Demands, PI: in.PI, Classes: in.Classes,
		p: p, net: in.Net, base: in.Tunnels, beta: in.Beta, tunnels: in.Tunnels,
		signals: make(map[topology.FiberID]float64, len(in.Signals)),
	}
	for _, s := range in.Signals {
		l.signals[s.Fiber] = s.PNN
	}
	return l
}

// group returns the fibers sharing f's conduit (§3.1: they degrade, and
// will likely cut, as one entity).
func (l *Loop) group(f topology.FiberID) []topology.FiberID {
	if l.conduits == nil {
		l.conduits = telemetry.ConduitGroups(l.net)
	}
	return l.conduits[f]
}

// Signal records a confirmed degradation on fiber f's conduit group with
// the predictor's failure probability pNN.
func (l *Loop) Signal(f topology.FiberID, pNN float64) {
	for _, m := range l.group(f) {
		l.signals[m] = pNN
	}
}

// Clear ends the degradation on fiber f's conduit group.
func (l *Loop) Clear(f topology.FiberID) {
	for _, m := range l.group(f) {
		delete(l.signals, m)
	}
}

// Signals returns the signals in force, in ascending fiber order.
func (l *Loop) Signals() []DegradationSignal {
	out := make([]DegradationSignal, 0, len(l.signals))
	for f, p := range l.signals {
		out = append(out, DegradationSignal{Fiber: f, PNN: p})
	}
	slices.SortFunc(out, func(a, b DegradationSignal) int { return cmp.Compare(a.Fiber, b.Fiber) })
	return out
}

// Restore rebuilds the epoch a journaled Eqn. 1 vector records, as a warm
// restart does before its first Solve: every fiber whose calibrated
// probability differs from its quiet value (1 - Alpha) * p_i becomes a
// signal at that probability, Algorithm 1 re-derives the episode, and the
// scenarios are regenerated. A prediction equal to the quiet value is
// indistinguishable from none; that costs a cold solve, never a wrong plan.
// The episode is not taken to be programmed — the journaled epoch may have
// fallen back to the base tunnels, or an agent may have lost its table —
// so the next Retunnel reports its tunnels added again.
func (l *Loop) Restore(probs []float64) (*scenario.Set, error) {
	if len(probs) != len(l.PI) {
		return nil, fmt.Errorf("core: %d calibrated probabilities for %d fibers", len(probs), len(l.PI))
	}
	clear(l.signals)
	for i, p := range probs {
		if p != (1-l.p.Alpha)*l.PI[i] {
			l.signals[topology.FiberID(i)] = p
		}
	}
	if _, _, err := l.Retunnel(); err != nil {
		return nil, err
	}
	l.held, l.unsent = l.prev, true
	return l.Regenerate()
}

// Reset forgets what a controller process holds only in memory — signals,
// episode, stage outputs and cached solves — as a restart does.
func (l *Loop) Reset() {
	warm := l.cache != nil
	*l = Loop{
		Demands: l.Demands, PI: l.PI, Classes: l.Classes,
		p: l.p, net: l.net, base: l.base, beta: l.beta, tunnels: l.base,
		signals: make(map[topology.FiberID]float64), conduits: l.conduits,
	}
	if warm {
		l.cache = &SolveCache{}
	}
}

// SolveCacheStats reports the uniform solve's warm-start cache counters
// (zero for a loop without caches).
func (l *Loop) SolveCacheStats() CacheStats {
	if l.cache == nil {
		return CacheStats{}
	}
	return l.cache.Stats()
}

// Retunnel is the tunnel-update stage (Algorithm 1, scaled by
// TunnelRatio). When the set of signalled fibers changed, or Revert or
// Restore left the episode unreported, it ends the episode — §4.2's
// restore — and derives the new one from the base tunnel set, one fiber at
// a time in ascending order. It reports the new episode's reactive
// tunnels, to install, and the held tunnels the new episode does not
// have, to remove first; both are empty when nothing changed.
func (l *Loop) Retunnel() (added, retired []routing.Tunnel, err error) {
	reg := l.p.Opt.Metrics
	t := reg.Timer("core.epoch.tunnel_update")
	defer t.Stop(t.Start())
	var fibers []topology.FiberID
	if l.p.TunnelRatio > 0 {
		for _, s := range l.Signals() {
			fibers = append(fibers, s.Fiber)
		}
	}
	l.prev = l.held
	if !l.unsent && slices.Equal(fibers, l.derived) {
		return nil, nil, nil
	}
	var update *UpdateResult
	tunnels := l.base
	for _, f := range fibers {
		res, err := UpdateTunnels(tunnels, f, l.p.TunnelRatio)
		if err != nil {
			return nil, nil, err
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
	added = reactive(update)
	retired = without(l.held, added)
	l.episode, l.derived, l.tunnels = update, fibers, tunnels
	l.held, l.unsent = added, false
	if update != nil {
		reg.Counter("core.epoch.new_tunnels").Add(int64(update.NewTunnels))
	}
	return added, retired, nil
}

// reactive lists an episode's Algorithm 1 tunnels.
func reactive(u *UpdateResult) []routing.Tunnel {
	var out []routing.Tunnel
	if u != nil {
		for _, tn := range u.Tunnels.Tunnels {
			if tn.New {
				out = append(out, tn)
			}
		}
	}
	return out
}

// without returns the tunnels of ts with no twin in drop (a tunnel with
// the same ID, flow and path).
func without(ts, drop []routing.Tunnel) []routing.Tunnel {
	var out []routing.Tunnel
	for _, tn := range ts {
		if !slices.ContainsFunc(drop, func(d routing.Tunnel) bool {
			return d.ID == tn.ID && d.Flow == tn.Flow && slices.Equal(d.Links, tn.Links)
		}) {
			out = append(out, tn)
		}
	}
	return out
}

// Revert drops the episode Retunnel just derived because its tunnels could
// not all be programmed: this epoch plans on the base tunnel set, and the
// next Retunnel derives (and reports) the episode again. The owner may
// still hold any tunnel of the ended episode or the new one, so both stay
// held, and the next change retires those its episode does not have.
func (l *Loop) Revert() {
	l.held = append(without(l.prev, l.held), l.held...)
	l.episode, l.derived, l.tunnels, l.unsent = nil, nil, l.base, true
}

// Regenerate is the scenario stage: Eqn. 1 calibrates the per-fiber
// failure probabilities from p_i and the signals (Alpha = 0, TeaVaR,
// ignores signals), and the failure scenarios Q_s are enumerated from them.
// It returns the scenario set Solve will plan over.
func (l *Loop) Regenerate() (*scenario.Set, error) {
	if len(l.PI) != len(l.net.Fibers) {
		return nil, fmt.Errorf("core: %d static probabilities for %d fibers", len(l.PI), len(l.net.Fibers))
	}
	reg := l.p.Opt.Metrics
	calT := reg.Timer("core.epoch.calibrate")
	calStart := calT.Start()
	var degraded map[topology.FiberID]float64
	if l.p.Alpha > 0 {
		degraded = l.signals
	}
	probs, err := scenario.Calibrated(l.PI, degraded, l.p.Alpha)
	calT.Stop(calStart)
	if err != nil {
		return nil, err
	}
	regenT := reg.Timer("core.epoch.scenario_regen")
	regenStart := regenT.Start()
	set, err := scenario.Enumerate(probs, l.p.ScenarioOpts)
	regenT.Stop(regenStart)
	if err != nil {
		return nil, err
	}
	l.probs, l.set = probs, set
	return set, nil
}

// Solve is the optimize stage: the unified optimization (Eqns. 2-8) over
// the episode's tunnels and the regenerated scenarios — classed when
// Classes has more than one tier — through the loop's caches.
func (l *Loop) Solve() (*EpochPlan, error) {
	if l.set == nil {
		return nil, fmt.Errorf("core: Solve before Regenerate")
	}
	in := &te.Input{Net: l.net, Tunnels: l.tunnels, Demands: l.Demands, Scenarios: l.set, Beta: l.beta}
	ep := &EpochPlan{Update: l.episode, Calibrated: l.probs, Scenarios: l.set}
	t := l.p.Opt.Metrics.Timer("core.epoch.optimize")
	start := t.Start()
	var err error
	if l.Classes.Enabled() {
		if ep.Classed, err = l.p.Opt.SolveClassedCached(in, l.Classes, l.tierCaches()); err == nil {
			ep.Plan = &te.Plan{Alloc: ep.Classed.Alloc, MaxLoss: ep.Classed.WeightedLoss, Tunnels: l.tunnels}
		}
	} else if ep.Result, err = l.p.Opt.SolveCached(in, l.cache); err == nil {
		ep.Plan = &te.Plan{Alloc: ep.Result.Alloc, MaxLoss: ep.Result.Phi, Tunnels: l.tunnels}
	}
	t.Stop(start)
	if err != nil {
		return nil, err
	}
	return ep, nil
}

// tierCaches returns one cache per tier (tier inputs have distinct
// fingerprints), rebuilt when the tier count changes; nil without caches.
func (l *Loop) tierCaches() []*SolveCache {
	if l.cache != nil && len(l.tiers) != len(l.Classes.Tiers) {
		l.tiers = make([]*SolveCache, len(l.Classes.Tiers))
		for i := range l.tiers {
			l.tiers[i] = &SolveCache{}
		}
	}
	return l.tiers
}

// Plan runs one whole epoch: Retunnel, Regenerate, Solve.
func (l *Loop) Plan() (*EpochPlan, error) {
	if _, _, err := l.Retunnel(); err != nil {
		return nil, err
	}
	if _, err := l.Regenerate(); err != nil {
		return nil, err
	}
	return l.Solve()
}
