package wan

import (
	"errors"
	"fmt"
	"time"

	"prete/internal/core"
	"prete/internal/ingest"
	"prete/internal/optical"
	"prete/internal/routing"
	"prete/internal/stats"
	"prete/internal/te"
	"prete/internal/telemetry"
	"prete/internal/topology"
)

// Predictor is the NN inference hook the testbed calls on a degradation
// event (tests stub it; examples plug the trained internal/ml model).
type Predictor func(f optical.Features) float64

// PipelineTiming is the Fig 11a latency breakdown of one degradation
// reaction: detection, model inference, tunnel update (the dominant term),
// failure-scenario regeneration, and TE computation.
type PipelineTiming struct {
	Detection     time.Duration
	Inference     time.Duration
	TunnelUpdate  time.Duration
	ScenarioRegen time.Duration
	TECompute     time.Duration
	RateInstall   time.Duration
	// Degraded reports that the round completed through the graceful
	// degradation ladder rather than cleanly: a control-plane stage failed
	// even after per-RPC retries, and the pipeline fell back (previous
	// tunnel set, heuristic TE plan, or last-good rates) instead of wedging.
	Degraded bool
	// SolveTruncated reports the TE solve's compute budget expired and the
	// installed plan is a truncated incumbent or heuristic fallback rather
	// than a certified optimum — feasible either way.
	SolveTruncated bool
}

// Total returns the end-to-end reaction latency.
func (p PipelineTiming) Total() time.Duration {
	return p.Detection + p.Inference + p.TunnelUpdate + p.ScenarioRegen + p.TECompute + p.RateInstall
}

// Testbed wires the §5 setup: the three-site triangle topology, one switch
// agent per site, a VOA on the s1-s2 fiber, and the PreTE controller loop.
// The loop (a core.Loop) is Fig 8's epoch; the testbed wraps it with what
// only a network does: tunnel install and removal, the rate push with its
// last-good fallback, admission, the journal, the stage timing and the
// event log.
type Testbed struct {
	Net     *topology.Network
	Agents  []*SwitchAgent
	Ctl     *Controller
	Predict Predictor
	// SolveUnits caps the deterministic work of each TE solve
	// (core.Optimizer.BudgetUnits); 0 is unlimited. Unlike SolveTimeout,
	// unit budgets keep seeded chaos runs bit-identical.
	SolveUnits int64
	// SolveTimeout, when positive, is an explicit wall-clock ceiling for the
	// TE solve (the -budget UNITS:TIMEOUT CLI form); 0 leaves the solve
	// wall-clock-unbounded.
	SolveTimeout time.Duration
	// Classes, when non-nil and enabled (multi-tier), switches the reaction
	// round onto the class-aware ladder: a strict-priority classed solve
	// (one Benders solve per tier against residual capacity, each under
	// SolveUnits) followed by the predictive admission/shedding stage. A
	// nil or single-tier spec takes the exact uniform code path — every
	// output is byte-identical to a classless testbed (pinned by
	// TestClassesDisabledByteIdentity).
	Classes *te.ClassSpec

	// loop runs the §2.2 instance's epochs; voa is the fiber the VOA script
	// degrades; opt is the loop's optimizer, whose budget knobs follow the
	// fields above.
	loop *core.Loop
	voa  topology.FiberID
	opt  *core.Optimizer
	// adm is the admission ladder's in-memory state. Like the loop's
	// signals, episode and caches it is process state: a restart or
	// failover drops it.
	adm *Admission
}

// tune refreshes the loop's class spec and its optimizer's budget knobs
// and metrics, which the caller may have changed between rounds.
func (tb *Testbed) tune() {
	tb.loop.Classes = tb.Classes
	tb.opt.BudgetUnits = tb.SolveUnits
	tb.opt.SolveTimeout = tb.SolveTimeout
	tb.opt.Metrics = tb.Ctl.Metrics
}

// Signal records a degradation on fiber f alone with failure probability
// pNN beside the VOA's, as a degradation storm does: every later reaction
// round plans with it, and a warm restart recovers it from the journal.
func (tb *Testbed) Signal(f topology.FiberID, pNN float64) {
	tb.loop.Signal(f, pNN)
}

// SolveCacheStats reports the loop's warm-start cache counters (zero
// before the first solve and after a restart).
func (tb *Testbed) SolveCacheStats() core.CacheStats {
	return tb.loop.SolveCacheStats()
}

// admissionLadder returns the testbed's admission stage, building it on
// first use against the active controller's metrics and event log.
func (tb *Testbed) admissionLadder() *Admission {
	if tb.adm == nil {
		tb.adm = NewAdmission(tb.Classes, tb.Ctl.Metrics, tb.Ctl.Log)
	}
	return tb.adm
}

// LastAdmission returns the last admission decision computed from a solve
// (nil before the first classed reaction round, and always nil with classes
// disabled). A round that fell back to last-good replays that decision
// without storing the replay, so it is still what LastAdmission returns.
func (tb *Testbed) LastAdmission() *AdmissionDecision {
	if tb.adm == nil {
		return nil
	}
	return tb.adm.Last()
}

// NewTestbed builds the triangle testbed with the given switch latencies
// over the production TCP transport.
func NewTestbed(cfg SwitchConfig, predict Predictor) (*Testbed, error) {
	return NewTestbedTransport(cfg, predict, TCPTransport{})
}

// NewTestbedTransport builds the testbed with the controller dialing
// through tr — the chaos experiments pass a fault.Transport here to inject
// deterministic control-plane faults between controller and agents.
func NewTestbedTransport(cfg SwitchConfig, predict Predictor, tr Transport) (*Testbed, error) {
	net, err := topology.Triangle(100) // 100 Gbps per wavelength (§5)
	if err != nil {
		return nil, err
	}
	flows := []routing.Flow{{ID: 0, Src: 0, Dst: 1}, {ID: 1, Src: 0, Dst: 2}}
	ts, err := routing.BuildTunnels(net, flows, 1)
	if err != nil {
		return nil, err
	}
	// The §2.2 instance: 50 Gbps per flow at beta 0.99 over the §2.2 static
	// failure probabilities, with the VOA on the s1-s2 fiber.
	engine := core.New()
	tb := &Testbed{
		loop: core.NewLoop(engine, core.EpochInput{
			Net: net, Tunnels: ts, Demands: te.Demands{50, 50}, Beta: 0.99,
			PI: []float64{0.005, 0.009, 0.001},
		}),
		Net: net, Predict: predict, voa: 0, opt: engine.Opt,
	}
	agents := make(map[string]string, 3)
	for _, n := range net.Nodes {
		a, err := NewSwitchAgent(n.Name, cfg)
		if err != nil {
			tb.Close()
			return nil, err
		}
		tb.Agents = append(tb.Agents, a)
		agents[n.Name] = a.Addr()
	}
	ctl, err := NewControllerTransport(tr, agents)
	if err != nil {
		tb.Close()
		return nil, err
	}
	tb.Ctl = ctl
	return tb, nil
}

// Close tears the testbed down.
func (tb *Testbed) Close() {
	if tb.Ctl != nil {
		tb.Ctl.Close()
	}
	for _, a := range tb.Agents {
		a.Close()
	}
}

// RunScenario replays the §5 VOA script (healthy 0-65 s, degraded
// 65-110 s, cut at 110 s) through the streaming ingest pipeline at one
// sample per tick and, on the first DegradationStart, executes the full
// PreTE reaction pipeline, returning its timing breakdown. The optical
// timeline is replayed at full speed — wall-clock costs are only incurred
// by the real computations and the real TCP round-trips to the switch
// agents.
func (tb *Testbed) RunScenario(seed uint64) (*PipelineTiming, error) {
	fiberSim := optical.NewFiberSim(tb.Net.Fiber(tb.voa).LengthKm, stats.NewRNG(seed))
	samples := optical.TestbedScript().Replay(fiberSim, 0)
	pipe, err := ingest.New(tb.Net, ingest.Config{Metrics: tb.Ctl.Metrics})
	if err != nil {
		return nil, err
	}
	react := func(batches []ingest.FiberEvents, detectStart time.Time) (*PipelineTiming, error) {
		for _, b := range batches {
			for _, fe := range b.Events {
				if fe.Type != telemetry.DegradationStart {
					continue
				}
				if !fe.HasFeatures {
					return nil, fmt.Errorf("wan: degradation on fiber %d has an empty window", b.Fiber)
				}
				detection := time.Since(detectStart)
				t, err := tb.react(topology.FiberID(b.Fiber), fe.Features)
				if err != nil {
					return nil, err
				}
				t.Detection = detection
				return t, nil
			}
		}
		return nil, nil
	}
	for _, s := range samples {
		detectStart := time.Now()
		batches, err := pipe.Tick([]ingest.Arrival{{Fiber: int(tb.voa), Sample: s}})
		if err != nil {
			return nil, err
		}
		if t, err := react(batches, detectStart); err != nil || t != nil {
			return t, err
		}
	}
	detectStart := time.Now()
	batches, err := pipe.Flush()
	if err != nil {
		return nil, err
	}
	if t, err := react(batches, detectStart); err != nil || t != nil {
		return t, err
	}
	return nil, fmt.Errorf("wan: the VOA script produced no degradation event")
}

// react runs one reaction round of the loop for a degradation confirmed on
// fiber, whose §3.2 features ingest extracted: inference -> tunnel update -> scenario regeneration -> TE
// computation -> rate installation, timing each stage, then admission and
// the journal. Control-plane failures that survive the controller's retry
// loop do not abort the round: the degradation ladder plans on the base
// tunnel set when the episode's tunnels cannot be programmed, and keeps
// the last good rates when the adaptation push fails (agents are never left
// rate-less).
func (tb *Testbed) react(fiber topology.FiberID, feats optical.Features) (*PipelineTiming, error) {
	var timing PipelineTiming
	tb.tune()
	// Model inference ("only takes several milliseconds", §5).
	t0 := time.Now()
	tb.Ctl.Log.Addf("stage inference")
	tb.loop.Signal(fiber, tb.Predict(feats))
	timing.Inference = time.Since(t0)

	// Tunnel update: Algorithm 1 on a changed signal set, then the agents
	// drop the ended episode's tunnels and program the new ones.
	t0 = time.Now()
	tb.Ctl.Log.Addf("stage tunnel-update")
	added, retired, err := tb.loop.Retunnel()
	if err != nil {
		return nil, err
	}
	if err := tb.program(added, retired); err != nil {
		if errors.Is(err, ErrControllerHalted) {
			// The controller process died mid-epoch: no ladder, no journal
			// entry for this epoch — the round aborts and the next
			// incarnation recovers the last journaled state from disk.
			return nil, err
		}
		// Ladder rung 1: the episode's tunnels could not all be programmed
		// even after retries. Plan on the base tunnel set instead of
		// wedging; any tunnels that did land are harmless (no rates are
		// allocated to them). The next round installs the episode again and
		// removes whatever of the ended one the agents may still hold.
		tb.Ctl.Metrics.Counter("wan.fallback.tunnel_rounds").Inc()
		tb.Ctl.Log.Addf("fallback tunnels")
		tb.loop.Revert()
		timing.Degraded = true
	}
	timing.TunnelUpdate = time.Since(t0)

	// Failure-scenario regeneration (Eqn. 1 + enumeration).
	t0 = time.Now()
	tb.Ctl.Log.Addf("stage scenario-regen")
	if _, err := tb.loop.Regenerate(); err != nil {
		return nil, err
	}
	timing.ScenarioRegen = time.Since(t0)

	// TE computation (Benders on the episode's tunnels), bounded by the
	// round's compute budget: the TE period is a hard deadline, so a solve
	// that cannot finish degrades to a truncated incumbent or the heuristic
	// plan — rung three of the ladder — rather than blowing the period.
	// The loop's warm-start caches serve quiet epochs (unchanged scenario
	// set and input) from the cached plan and re-solve probability-only
	// drift from the previous cut pool.
	t0 = time.Now()
	tb.Ctl.Log.Addf("stage te-compute")
	ep, err := tb.loop.Solve()
	if err != nil {
		return nil, err
	}
	tb.markSolve(&timing, ep)
	timing.TECompute = time.Since(t0)

	// Rate adaptation push. Ladder rung 2: if the push cannot complete, the
	// controller re-asserts the last good table and the round is recorded
	// as degraded rather than failed.
	t0 = time.Now()
	tb.Ctl.Log.Addf("stage rate-install")
	rates := make(map[string]float64, len(ep.Plan.Alloc))
	for tid, amt := range ep.Plan.Alloc {
		rates[fmt.Sprintf("t%d", tid)] = amt
	}
	_, fellBack, err := tb.Ctl.UpdateRatesWithFallback(rates)
	if err != nil && errors.Is(err, ErrControllerHalted) {
		return nil, err
	} else if fellBack {
		timing.Degraded = true
	}
	timing.RateInstall = time.Since(t0)

	// Predictive admission: with classes enabled, the epoch's per-tier
	// decision is derived from the classed solve — or, when the rate push
	// fell back to the previous table, replayed from the previous decision
	// (the ladder's last-good rung).
	if ep.Classed != nil {
		adm := tb.admissionLadder()
		var dec *AdmissionDecision
		if fellBack {
			dec = adm.DecideLastGood()
		}
		if dec == nil {
			dec = adm.Decide(ep.Classed, true)
		}
		if err := dec.Check(); err != nil {
			return nil, err
		}
	}

	// The epoch completed (possibly degraded, but with a consistent plan
	// installed): journal it — including the scenario-set fingerprint, so
	// the next incarnation can warm-start the solver — and a warm restart
	// resumes from here. A nil store (no -state-dir) makes this a no-op,
	// and journaling is a write-only side channel — it never changes the
	// installed plan.
	if err := tb.Ctl.JournalEpoch(ep.Calibrated, ep.Scenarios.Fingerprint()); err != nil {
		return nil, fmt.Errorf("wan: epoch completed but not journaled: %w", err)
	}
	return &timing, nil
}

// program brings the agents' tunnel tables in line with a new episode:
// the retired tunnels are removed first, since a new tunnel may reuse a
// retired one's ID, then the episode's are installed (idempotently).
func (tb *Testbed) program(added, retired []routing.Tunnel) error {
	if err := tb.Ctl.RemoveTunnels(tb.installsFor(retired)); err != nil {
		return err
	}
	_, err := tb.Ctl.InstallTunnels(tb.installsFor(added))
	return err
}

// markSolve records rung three of the ladder on the round: a truncated
// solve (of any tier) installed an anytime incumbent, a fallback installed
// the heuristic plan — valid but unoptimized, so the round counts as
// degraded like the other rungs.
func (tb *Testbed) markSolve(timing *PipelineTiming, ep *core.EpochPlan) {
	var truncated, fellBack bool
	if ep.Classed != nil {
		for _, tier := range ep.Classed.Tiers {
			truncated = truncated || tier.Res.Truncated
			fellBack = fellBack || tier.Res.Fallback
		}
	} else {
		truncated, fellBack = ep.Result.Truncated, ep.Result.Fallback
	}
	if truncated {
		timing.SolveTruncated = true
		tb.Ctl.Metrics.Counter("wan.solve.truncated_rounds").Inc()
		tb.Ctl.Log.Addf("te-solve truncated")
	}
	if fellBack {
		timing.Degraded = true
		tb.Ctl.Metrics.Counter("wan.solve.fallback_rounds").Inc()
		tb.Ctl.Log.Addf("te-solve fallback")
	}
}

// OpenState attaches a crash-safe state store under dir to the testbed's
// controller and, on a warm start, re-asserts the recovered last-good rate
// table fleet-wide — a heartbeat at the recovered table's tag, which also
// raises every agent's fence; an agent that restarted or holds another
// table answers Resync and gets the full table — then primes the loop's
// warm-start caches from the journaled probability vector, so the first
// post-restart reaction round warm-starts instead of solving cold. The
// returned Recovery reports what was found; rec.Warm == false is a cold
// start (the ladder begins empty, exactly as without a state directory).
func (tb *Testbed) OpenState(dir string) (*Recovery, error) {
	rec, err := tb.Ctl.OpenState(dir)
	if err != nil {
		return nil, err
	}
	if rec.Warm {
		if last := tb.Ctl.LastGoodRates(); last != nil {
			if _, err := tb.Ctl.UpdateRates(last); err != nil {
				return rec, fmt.Errorf("wan: re-assert recovered rates: %w", err)
			}
		}
		tb.primeSolver()
	}
	return rec, nil
}

// primeSolver rebuilds the last journaled epoch through the loop
// (Loop.Restore: its signals, Algorithm 1's episode and its scenarios),
// checks the rebuilt scenario set against the journaled fingerprint, and
// solves it once into the warm-start caches. Nothing is programmed here:
// the journaled round may have fallen back to the base tunnels, or an
// agent may have lost its table, so the next reaction round installs the
// episode again. Priming is best-effort and write-only: any failure resets
// the loop, which only costs the next round a cold solve. A fingerprint
// mismatch means enumeration options or code changed across the restart;
// the stale plan must not be trusted, so the caches stay cold and the
// mismatch is counted.
func (tb *Testbed) primeSolver() {
	probs := tb.Ctl.LastProbs()
	if len(probs) == 0 {
		return
	}
	tb.tune()
	set, err := tb.loop.Restore(probs)
	if err != nil {
		tb.loop.Reset()
		tb.Ctl.Log.Addf("warmstart enumerate failed")
		return
	}
	if want := tb.Ctl.LastScenarioFP(); want != 0 {
		if got := set.Fingerprint(); got != want {
			tb.loop.Reset()
			tb.Ctl.Metrics.Counter("wan.recovery.scenario_fp_mismatch").Inc()
			tb.Ctl.Log.Addf("warmstart fingerprint mismatch")
			return
		}
		tb.Ctl.Metrics.Counter("wan.recovery.scenario_fp_match").Inc()
	}
	if _, err := tb.loop.Solve(); err != nil {
		tb.loop.Reset()
		tb.Ctl.Log.Addf("warmstart prime failed")
		return
	}
	tb.Ctl.Metrics.Counter("wan.warmstart.primed").Inc()
	tb.Ctl.Log.Addf("warmstart primed")
}

// AgentAddrs returns the switch fleet as the name -> address map a
// controller (or a SiteSet's promoted controller) dials.
func (tb *Testbed) AgentAddrs() map[string]string {
	agents := make(map[string]string, len(tb.Agents))
	for _, a := range tb.Agents {
		agents[a.Name] = a.Addr()
	}
	return agents
}

// RestartController simulates a controller process restart: the old
// incarnation is torn down (dropping its connections and releasing its
// state-directory lock) and a fresh controller dials the same agents
// through tr, inheriting the old tuning (timeout, retry policy, metrics,
// event log) but none of the in-memory state — that comes back, if at all,
// through OpenState.
func (tb *Testbed) RestartController(tr Transport) error {
	old := tb.Ctl
	if old != nil {
		old.Close()
	}
	ctl, err := NewControllerTransport(tr, tb.AgentAddrs())
	if err != nil {
		return err
	}
	if old != nil {
		ctl.Retry = old.Retry
		ctl.Metrics = old.Metrics
		ctl.Log = old.Log
	}
	tb.Ctl = ctl
	// A real restart loses the loop's in-memory state too — signals,
	// episode and warm-start caches, which come back, if at all, through
	// OpenState's journal-driven priming — and the admission ladder's
	// backlog and last-good decision.
	tb.loop.Reset()
	tb.adm = nil
	return nil
}

// AdoptPromoted installs a promoted replica's controller as the testbed's
// active controller — the failover analogue of RestartController. The old
// controller is returned rather than closed: failover tests keep the
// zombie predecessor alive and dialable to prove the agents fence its
// post-promotion RPCs (and a real dead leader cannot be "closed" anyway).
// Like a restart, adoption drops the loop's in-memory state; if the
// promoted controller recovered warm, the loop is re-primed from its
// journaled probability vector.
func (tb *Testbed) AdoptPromoted(ctl *Controller) (zombie *Controller) {
	zombie = tb.Ctl
	tb.Ctl = ctl
	tb.loop.Reset()
	tb.adm = nil
	tb.primeSolver()
	return zombie
}

// installsFor maps tunnels to per-switch install (or removal) commands:
// the head-end switch of each tunnel programs it.
func (tb *Testbed) installsFor(tunnels []routing.Tunnel) []TunnelInstall {
	out := make([]TunnelInstall, 0, len(tunnels))
	for _, tn := range tunnels {
		head := tb.Net.Nodes[int(tb.Net.Link(tn.Links[0]).Src)]
		path := make([]int, len(tn.Links))
		for i, l := range tn.Links {
			path[i] = int(l)
		}
		out = append(out, TunnelInstall{Switch: head.Name, TunnelID: int(tn.ID), Path: path})
	}
	return out
}

// MeasureInstallScaling measures tunnel installation wall time for
// growing batch sizes (Fig 11b).
func MeasureInstallScaling(cfg SwitchConfig, counts []int) (map[int]time.Duration, error) {
	agent, err := NewSwitchAgent("s1", cfg)
	if err != nil {
		return nil, err
	}
	defer agent.Close()
	ctl, err := NewController(map[string]string{"s1": agent.Addr()})
	if err != nil {
		return nil, err
	}
	defer ctl.Close()
	out := make(map[int]time.Duration, len(counts))
	next := 0
	for _, n := range counts {
		installs := make([]TunnelInstall, n)
		for i := range installs {
			installs[i] = TunnelInstall{Switch: "s1", TunnelID: next, Path: []int{0, 1}}
			next++
		}
		d, err := ctl.InstallTunnels(installs)
		if err != nil {
			return nil, err
		}
		out[n] = d
	}
	return out, nil
}
