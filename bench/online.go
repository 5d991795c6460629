package main

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"prete/internal/core"
	"prete/internal/ingest"
	"prete/internal/ml"
	"prete/internal/obs"
	"prete/internal/persist"
	"prete/internal/routing"
	"prete/internal/scenario"
	"prete/internal/te"
	"prete/internal/telemetry"
	"prete/internal/topology"
	"prete/internal/wan"
)

const (
	beta  = 0.99 // planning availability target
	alpha = 0.25 // fraction of predictable cuts (Theorem 4.1)
)

// site is the program under test, assembled by the harness from the layers'
// public constructors exactly as cmd/prete-testbed wires them: one ingest
// pipeline, one predictor, one optimizer with its solve caches, a controller
// dialed to one switch agent per node over loopback TCP (zero emulated
// switch latency — loopback, not a link), a journal, and a replicator
// shipping into a second site's applier.
type site struct {
	in  *inputs
	rec *recorder
	// reg collects the leader's series in a traced run (nil untraced). The
	// second site's store gets none, so persist.* stays the leader's.
	reg *obs.Registry

	net  *topology.Network
	base *routing.TunnelSet
	nn   *ml.NN
	pipe *ingest.Pipeline

	agents []*wan.SwitchAgent
	addrs  map[string]string
	ctl    *wan.Controller

	opt        *core.Optimizer
	cache      *core.SolveCache
	classes    *te.ClassSpec
	tierCaches []*core.SolveCache
	adm        *wan.Admission

	dir     string // the run's state root: leader/ and site2/ beneath it
	repl    *persist.Replicator
	standby *persist.Store
	applier *persist.Applier

	// Epoch-to-epoch controller state the harness owns because no layer does.
	signals   map[topology.FiberID]float64 // degraded fiber -> predicted p
	plan      *routing.TunnelSet           // base plus reactive tunnels
	installed []wan.TunnelInstall          // reactive tunnels on the agents
	pushed    map[string]float64           // last rate table pushed

	trainS float64
	lp     lpClock
}

// lpClock is the optimizer's own LP timers — master, subproblem, polish —
// the only view of LP time there is from outside internal/core.
type lpClock [3]*obs.Timer

func newLPClock(reg *obs.Registry) lpClock {
	return lpClock{reg.Timer("core.benders.master_solve"),
		reg.Timer("core.benders.subproblem_solve"), reg.Timer("core.benders.polish_solve")}
}

// total is the LP time accumulated so far (0 on a nil registry).
func (c lpClock) total() time.Duration { return c[0].Total() + c[1].Total() + c[2].Total() }

// applyPipe ships replication frames straight into the second site's
// applier, answering gaps and bad frames with a re-sync request as the
// network ingress does.
type applyPipe struct{ ap *persist.Applier }

func (p applyPipe) Ship(frame []byte, snapshot bool) (uint64, bool, error) {
	ack, err := p.ap.Apply(frame, snapshot)
	if errors.Is(err, persist.ErrGap) || errors.Is(err, persist.ErrBadFrame) {
		return ack, true, nil
	}
	return ack, false, err
}

// newSite performs the set-up a controller pays before its first epoch:
// topology, pre-established tunnels, predictor training, agents, dial,
// stores. The warm-up epoch is the caller's (setUp).
func newSite(in *inputs, stateRoot string, traced bool) (s *site, err error) {
	s = &site{in: in, signals: map[topology.FiberID]float64{}}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if traced {
		s.rec = newRecorder()
		s.reg = obs.NewRegistry()
	}
	if s.net, err = topology.ByName(in.spec.topo); err != nil {
		return s, err
	}
	if s.base, err = routing.BuildTunnels(s.net, routing.Flows(s.net), 4); err != nil {
		return s, err
	}
	s.plan = s.base

	t0 := time.Now()
	cfg := ml.DefaultNNConfig(profileSeed)
	cfg.Epochs = in.nnEpochs
	if s.nn, err = ml.TrainNN(in.examples, cfg); err != nil {
		return s, err
	}
	s.trainS = time.Since(t0).Seconds()

	icfg := ingest.DefaultConfig()
	icfg.Metrics = s.reg
	if s.pipe, err = ingest.New(s.net, icfg); err != nil {
		return s, err
	}

	s.addrs = make(map[string]string, len(s.net.Nodes))
	for _, n := range s.net.Nodes {
		a, err := wan.NewSwitchAgent(n.Name, wan.SwitchConfig{MaxTunnels: 20000})
		if err != nil {
			return s, err
		}
		s.agents = append(s.agents, a)
		s.addrs[n.Name] = a.Addr()
	}
	if err = os.MkdirAll(stateRoot, 0o755); err != nil {
		return s, err
	}
	if s.dir, err = os.MkdirTemp(stateRoot, in.spec.name+"-"); err != nil {
		return s, err
	}
	if s.ctl, err = wan.NewController(s.addrs); err != nil {
		return s, err
	}
	s.ctl.Metrics = s.reg
	if _, err = s.ctl.OpenState(s.leaderDir()); err != nil {
		return s, err
	}

	s.opt = core.DefaultOptimizer()
	s.opt.Metrics = s.reg
	s.cache = &core.SolveCache{}
	if in.spec.classed {
		s.classes = te.DefaultClassSpec()
		for range s.classes.Tiers {
			s.tierCaches = append(s.tierCaches, &core.SolveCache{})
		}
		s.adm = wan.NewAdmission(s.classes, s.reg, nil)
	}
	s.lp = newLPClock(s.reg)

	if s.standby, err = persist.Open(filepath.Join(s.dir, "site2"), persist.Options{}); err != nil {
		return s, err
	}
	s.applier = persist.NewApplier(s.standby, persist.ApplierOptions{})
	if s.repl, err = persist.NewReplicator(s.leaderDir(), persist.ReplicatorOptions{Metrics: s.reg}); err != nil {
		return s, err
	}
	s.repl.AddTarget("site2", applyPipe{s.applier})
	return s, nil
}

func (s *site) leaderDir() string { return filepath.Join(s.dir, "leader") }

// close stops everything newSite started and removes the state root.
func (s *site) close() {
	if s.repl != nil {
		s.repl.Close()
	}
	if s.ctl != nil {
		s.ctl.Close()
	}
	if s.standby != nil {
		s.standby.Close()
	}
	for _, a := range s.agents {
		a.Close()
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// epochInput is one epoch's generated inputs.
type epochInput struct {
	win   window
	drift []float64 // per-fiber p_i factors; nil = none
}

// epochResult is what one epoch installed, kept for the output checks.
type epochResult struct {
	dur      time.Duration
	tickNS   []int64 // per-Tick wall times (traced runs only)
	tunnels  *routing.TunnelSet
	set      *scenario.Set
	delta    scenario.DeltaClass
	res      *core.Result        // uniform solve
	classed  *core.ClassedResult // classed solve
	decision *wan.AdmissionDecision
	alloc    te.Allocation
	predicts int
}

// epochInput picks epoch i's telemetry and drift from the generated pools.
func (in *inputs) epochInput(i int) epochInput {
	switch in.spec.mode {
	case modeStorm:
		return epochInput{win: in.onset[in.order[i%len(in.order)]]}
	case modeDrift:
		return epochInput{win: in.standing[i%len(in.standing)], drift: in.drift[i%len(in.drift)]}
	}
	return epochInput{win: in.healthy[i%len(in.healthy)]}
}

// warmUpInput is the untimed epoch that ends set-up: it fills the solve
// cache, the agents' tables and the journal so the first timed epoch
// already lands on the workload's designed cache rung.
func (in *inputs) warmUpInput() epochInput {
	switch in.spec.mode {
	case modeStorm:
		// The sweep's last fiber: the first timed epoch moves off it.
		return epochInput{win: in.onset[in.order[len(in.order)-1]]}
	case modeDrift:
		return epochInput{win: in.onset[0]}
	}
	return epochInput{win: in.healthy[len(in.healthy)-1]}
}

// epoch runs one online epoch, first sample in to journal durable and
// shipped, timing each layer call from outside.
func (s *site) epoch(e epochInput) (*epochResult, error) {
	out := &epochResult{}
	rec := s.rec
	start := time.Now()
	root := rec.begin("harness", "epoch")

	// Telemetry window through the streaming front-end.
	sp := rec.begin("ingest", "ingest.window")
	var events []ingest.FiberEvents
	for _, arrivals := range e.win {
		var t0 time.Time
		if rec != nil {
			t0 = time.Now()
		}
		batches, err := s.pipe.Tick(arrivals)
		if err != nil {
			return nil, err
		}
		if rec != nil {
			out.tickNS = append(out.tickNS, int64(time.Since(t0)))
		}
		events = append(events, batches...)
	}
	batches, err := s.pipe.Flush()
	if err != nil {
		return nil, err
	}
	events = append(events, batches...)
	rec.end(sp)

	// Detection events update the signal set; a degradation start asks the
	// predictor for the fiber's failure probability.
	changed := false
	for _, b := range events {
		for _, ev := range b.Events {
			f := topology.FiberID(b.Fiber)
			switch ev.Type {
			case telemetry.DegradationStart:
				p := 0.40 // the measured P(cut | degradation) fallback
				if ev.HasFeatures {
					sp := rec.begin("ml", "ml.predict")
					p = s.nn.PredictProb(ev.Features)
					rec.end(sp)
					out.predicts++
				}
				s.signals[f] = p
				changed = true
			case telemetry.DegradationEnd, telemetry.Repaired:
				if _, ok := s.signals[f]; ok {
					delete(s.signals, f)
					changed = true
				}
			}
		}
	}

	// Algorithm 1 on a changed signal set: restore the previous episode's
	// reactive tunnels (§4.2), derive the new ones, program them.
	if changed {
		if err := s.retunnel(); err != nil {
			return nil, err
		}
	}
	out.tunnels = s.plan

	// Eqn. 1 calibration and scenario regeneration.
	sp = rec.begin("scenario", "scenario.regen")
	pi := s.in.pi
	if e.drift != nil {
		pi = make([]float64, len(s.in.pi))
		for f, p := range s.in.pi {
			pi[f] = p * e.drift[f]
		}
	}
	probs, err := scenario.Calibrated(pi, s.signals, alpha)
	if err != nil {
		return nil, err
	}
	set, err := scenario.Enumerate(probs, scenario.Options{
		Cutoff: s.in.spec.cutoff, MaxFailures: 2, MaxScenarios: s.in.spec.maxScenarios})
	if err != nil {
		return nil, err
	}
	rec.end(sp)
	out.set = set

	// TE solve through the cross-epoch caches.
	teIn := &te.Input{Net: s.net, Tunnels: s.plan, Demands: s.in.demands, Scenarios: set, Beta: beta}
	sp = rec.begin("core", "core.solve")
	lp0 := s.lp.total()
	if s.classes != nil {
		if out.classed, err = s.opt.SolveClassedCached(teIn, s.classes, s.tierCaches); err != nil {
			return nil, err
		}
		out.alloc = out.classed.Alloc
		out.delta = s.tierCaches[0].Stats().LastDelta.Class
	} else {
		if out.res, err = s.opt.SolveCached(teIn, s.cache); err != nil {
			return nil, err
		}
		out.alloc = out.res.Alloc
		out.delta = s.cache.Stats().LastDelta.Class
	}
	rec.derived(sp, "lp", "lp.busy", s.lp.total()-lp0)
	rec.end(sp)
	if s.classes != nil {
		sp = rec.begin("wan", "wan.admission")
		out.decision = s.adm.Decide(out.classed, len(s.signals) > 0)
		rec.end(sp)
	}

	// Rate push: the full table, so every tunnel of the plan has an entry.
	rates := make(map[string]float64, len(s.plan.Tunnels))
	for _, t := range s.plan.Tunnels {
		rates["t"+strconv.Itoa(int(t.ID))] = out.alloc[t.ID]
	}
	sp = rec.begin("wan", "wan.rates")
	if _, err := s.ctl.UpdateRates(rates); err != nil {
		return nil, err
	}
	rec.end(sp)
	s.pushed = rates

	sp = rec.begin("persist", "persist.journal")
	if err := s.ctl.JournalEpoch(probs, set.Fingerprint()); err != nil {
		return nil, err
	}
	rec.end(sp)

	sp = rec.begin("persist", "persist.ship")
	if err := s.repl.Tick(); err != nil {
		return nil, err
	}
	rec.end(sp)

	rec.end(root)
	out.dur = time.Since(start)
	rec.nextOp()
	return out, nil
}

// retunnel re-derives the reactive tunnel set for the current signals and
// brings the agents' tunnel tables in line with it.
func (s *site) retunnel() error {
	rec := s.rec
	if len(s.installed) > 0 {
		sp := rec.begin("wan", "wan.remove")
		err := s.ctl.RemoveTunnels(s.installed)
		rec.end(sp)
		if err != nil {
			return err
		}
		s.installed = nil
	}
	fibers := make([]int, 0, len(s.signals))
	for f := range s.signals {
		fibers = append(fibers, int(f))
	}
	sort.Ints(fibers)
	sp := rec.begin("core", "core.tunnel_update")
	s.plan = s.base
	for _, f := range fibers {
		upd, err := core.UpdateTunnels(s.plan, topology.FiberID(f), 1)
		if err != nil {
			return err
		}
		s.plan = upd.Tunnels
	}
	rec.end(sp)
	for _, tn := range s.plan.Tunnels {
		if !tn.New {
			continue
		}
		path := make([]int, len(tn.Links))
		for i, l := range tn.Links {
			path[i] = int(l)
		}
		head := s.net.Nodes[int(s.plan.Flows[tn.Flow].Src)].Name
		s.installed = append(s.installed, wan.TunnelInstall{Switch: head, TunnelID: int(tn.ID), Path: path})
	}
	if len(s.installed) == 0 {
		return nil
	}
	sp = rec.begin("wan", "wan.install")
	_, err := s.ctl.InstallTunnels(s.installed)
	rec.end(sp)
	return err
}

// restartResult is one warm restart, kept for the output checks.
type restartResult struct {
	dur   time.Duration
	rec   *wan.Recovery
	rates map[string]float64
}

// restart performs one controller warm restart on the state directory: a
// fresh controller dials the agents, opens the state, and re-asserts the
// recovered last-good rates fleet-wide. persist.Open starts a new (empty)
// journal file per incarnation and nothing is journaled here to compact it
// away, so the file is removed again, untimed: every restart finds the same
// directory.
func (s *site) restart(dir string) (*restartResult, error) {
	before, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	rec := s.rec
	out := &restartResult{}
	start := time.Now()
	root := rec.begin("harness", "restart")
	sp := rec.begin("wan", "wan.dial")
	ctl, err := wan.NewController(s.addrs)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	defer ctl.Close()
	ctl.Metrics = s.reg
	sp = rec.begin("persist", "persist.recover")
	out.rec, err = ctl.OpenState(dir)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	out.rates = ctl.LastGoodRates()
	sp = rec.begin("wan", "wan.rates")
	_, err = ctl.UpdateRates(out.rates)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	rec.end(root)
	out.dur = time.Since(start)
	rec.nextOp()

	had := make(map[string]bool, len(before))
	for _, e := range before {
		had[e.Name()] = true
	}
	after, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range after {
		if !had[e.Name()] {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}
