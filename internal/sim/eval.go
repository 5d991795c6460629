package sim

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"prete/internal/core"
	"prete/internal/obs"
	"prete/internal/par"
	"prete/internal/routing"
	"prete/internal/scenario"
	"prete/internal/te"
	"prete/internal/topology"
	"prete/internal/trace"
)

// PredictorQuality models how good the failure predictor is, in the terms
// the evaluation needs: the expected probability it reports for episodes
// that truly fail and for episodes that do not. The oracle is {1, 0}; a
// TeaVar-style non-predictor reports the tiny static probability in both
// cases. Fig 15 sweeps this across the Table 5 models.
type PredictorQuality struct {
	Name     string
	PHatFail float64 // E[p-hat | episode leads to a cut]
	PHatOK   float64 // E[p-hat | episode does not]
}

// OracleQuality is the perfect predictor.
func OracleQuality() PredictorQuality {
	return PredictorQuality{Name: "Oracle", PHatFail: 1, PHatOK: 0}
}

// NNQuality approximates the paper's NN (Table 5: P = R = 0.81).
func NNQuality() PredictorQuality { return PredictorQuality{Name: "NN", PHatFail: 0.81, PHatOK: 0.19} }

// Evaluator measures a scheme's availability in an environment. The
// degradation-scenario loop fans out across Cfg.Parallelism workers; each
// scenario's contribution is accumulated into its own partial vector and
// the partials are summed in scenario order, so the result is bit-identical
// at every parallelism level.
type Evaluator struct {
	Env *Env
	Cfg Config
	// Quality parameterizes PreTE-like schemes' predictions; ignored by
	// static schemes.
	Quality PredictorQuality

	// caches; mu guards them so concurrent scenario workers can share
	// post-failure plans. Each key is built once: a worker that misses a
	// key another is building waits for that build (see memo).
	mu    sync.Mutex
	plans map[planKey]*memo[*te.Plan] // per-cut plans: ARROW's, Flexile's and the oracle's
	// enumCache memoizes scenario enumeration by input fingerprint
	// (probability vector + Cfg.ScenarioOpts). Enumerate is a pure
	// deterministic function of exactly those inputs, so the cached set is
	// interchangeable with a fresh one — and every degradation scenario,
	// every world branch, and every cell of a sweep that lands on the same
	// probabilities (e.g. the quiet-epoch vector, identical across all of
	// ExpFig13's grid cells for a given env) reuses one enumeration
	// instead of paying the O(fibers²) pair sweep again.
	enumCache map[scenario.Fingerprint]*memo[*scenario.Set]
}

// NewEvaluator builds an evaluator with the NN-quality predictor.
func NewEvaluator(env *Env, cfg Config) *Evaluator {
	return &Evaluator{
		Env: env, Cfg: cfg, Quality: NNQuality(),
		plans:     make(map[planKey]*memo[*te.Plan]),
		enumCache: make(map[scenario.Fingerprint]*memo[*scenario.Set]),
	}
}

// reaction is how a scheme's delivery responds to the failures of its
// epoch (Table 9).
type reaction int

const (
	// instant is proactive rate adaptation: the epoch's plan carries the
	// flow through the cut, or nothing does.
	instant reaction = iota
	// restore is ARROW [41]: optical restoration rebuilds part of the cut
	// capacity, and a flow the restored network can carry is whole again
	// after arrowRestorationS.
	restore
	// recompute is Flexile [21]: affected flows run on the stale plan
	// until a centralized recomputation installs the post-failure optimum,
	// flexileConvergenceS later; a flow that plan can carry is whole again.
	recompute
	// perCut is the oracle: ahead of each cut it switches to that cut's
	// optimal plan.
	perCut
	// predicted is PreTE: a degradation splits into the world where the
	// episode cuts its fiber and the one where it does not, each planned
	// from the predictor's output in that world and served instantly.
	predicted
)

// scheme is one §6 scheme: how it plans and how it reacts to a cut.
type scheme struct {
	// plan computes a te baseline's one pre-failure plan.
	plan func(in *te.Input) (*te.Plan, error)
	// newCore returns the Fig 8 planner of a scheme built on internal/core.
	newCore func() *core.PreTE
	react   reaction
}

// schemeTable maps every scheme name Evaluate accepts to its scheme.
var schemeTable = map[string]scheme{
	"ECMP":        {plan: te.ECMP{}.Plan, react: instant},
	"FFC-1":       {plan: te.FFC{K: 1}.Plan, react: instant},
	"FFC-2":       {plan: te.FFC{K: 2}.Plan, react: instant},
	"TeaVar":      {newCore: core.NewTeaVar, react: instant},
	"ARROW":       {plan: failureOblivious, react: restore},
	"Flexile":     {plan: failureOblivious, react: recompute},
	"Oracle":      {react: perCut},
	"PreTE":       {newCore: withRatio(1), react: predicted},
	"PreTE-naive": {newCore: withRatio(0), react: predicted},
}

// failureOblivious is ARROW's and Flexile's pre-failure plan: optimal for
// the intact network.
func failureOblivious(in *te.Input) (*te.Plan, error) { return te.MinMaxLossPlan(in, nil) }

// withRatio returns PreTE's planner at a new-tunnel ratio (§6.4): 1 is
// PreTE, 0 is PreTE-naive.
func withRatio(ratio float64) func() *core.PreTE {
	return func() *core.PreTE {
		p := core.New()
		p.TunnelRatio = ratio
		return p
	}
}

// coreScheme returns the named scheme if internal/core plans it (PreTE,
// PreTE-naive, TeaVar): the entry points that run its Fig 8 planner
// directly accept only those.
func coreScheme(name string) (scheme, error) {
	s, ok := schemeTable[name]
	if !ok || s.newCore == nil {
		return scheme{}, fmt.Errorf("sim: %q is not a scheme internal/core plans (PreTE, PreTE-naive, TeaVar)", name)
	}
	return s, nil
}

// planner returns scheme s's Fig 8 planner under the evaluation's
// settings; a predicting scheme calibrates with Cfg.Alpha.
func (ev *Evaluator) planner(s scheme) *core.PreTE {
	p := s.newCore()
	if s.react == predicted {
		p.Alpha = ev.Cfg.Alpha
	}
	p.ScenarioOpts = ev.Cfg.ScenarioOpts
	p.Opt.Metrics = ev.Cfg.Metrics
	p.Opt.BudgetUnits = ev.Cfg.SolveBudget
	return p
}

// epochInput is one TE period of the environment at the given demands and
// degradation signals.
func (ev *Evaluator) epochInput(demands te.Demands, signals []core.DegradationSignal) core.EpochInput {
	return core.EpochInput{
		Net: ev.Env.Net, Tunnels: ev.Env.Tunnels, Demands: demands,
		Beta: Beta, PI: ev.Env.PI, Signals: signals,
	}
}

// enumerate returns the scenario set for probs under Cfg.ScenarioOpts,
// memoized through enumCache. Sets are shared read-only.
func (ev *Evaluator) enumerate(probs []float64) (*scenario.Set, error) {
	m := ev.metrics()
	fp := scenario.FingerprintProbs(probs, ev.Cfg.ScenarioOpts)
	return memoized(&ev.mu, ev.enumCache, fp, m.enumHits, m.enumMisses, func() (*scenario.Set, error) {
		return scenario.Enumerate(probs, ev.Cfg.ScenarioOpts)
	})
}

// memo is one cache entry, built once: done closes when val and err are
// set.
type memo[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// memoized returns the value cached under key, building it on a miss. The
// first caller to miss a key builds it; a concurrent caller that finds the
// key waits for that build and counts as a hit, so every key is built
// once and every caller gets the one value. A failed build hands its error
// to the callers that waited on it and stores nothing: the next caller
// builds again.
func memoized[K comparable, V any](mu *sync.Mutex, cache map[K]*memo[V], key K, hits, misses *obs.Counter, build func() (V, error)) (V, error) {
	mu.Lock()
	e, ok := cache[key]
	if !ok {
		e = &memo[V]{done: make(chan struct{})}
		cache[key] = e
	}
	mu.Unlock()
	if ok {
		hits.Inc()
		<-e.done
		return e.val, e.err
	}
	misses.Inc()
	defer close(e.done)
	e.val, e.err = build()
	if e.err != nil {
		mu.Lock()
		delete(cache, key)
		mu.Unlock()
	}
	return e.val, e.err
}

// A world is one branch of a degradation scenario: its probability
// weight, the per-fiber failure probabilities the truth cuts with in it,
// and the scheme's credit under each of its failure scenarios.
type world struct {
	weight float64
	probs  []float64
	credit credit
}

// integrate is the §6 availability model, written once: degradation
// scenario i of n expands into worlds(i), each world's failure scenarios
// are enumerated through the memo, and flow f earns (weight · q.Prob) ·
// credit under each. Terms sum per world in scenario order, worlds sum in
// order into the degradation scenario's partial vector, and the partials
// merge in scenario order, so the result is bit-identical at every
// Parallelism. The un-enumerated failure tail counts as loss for every
// flow.
func (ev *Evaluator) integrate(n int, worlds func(i int) ([]world, error)) (Availability, error) {
	m := ev.metrics()
	nFlows := len(ev.Env.Tunnels.Flows)
	partials, err := par.MapErr(n, ev.Cfg.Parallelism, func(i int) ([]float64, error) {
		start := m.evalTime.Start()
		defer m.evalTime.Stop(start)
		defer m.degScenarios.Inc()
		ws, err := worlds(i)
		if err != nil {
			return nil, err
		}
		part := make([]float64, nFlows)
		sum := make([]float64, nFlows)
		c := make([]float64, nFlows)
		var cut topology.FiberSet
		for _, w := range ws {
			fs, err := ev.enumerate(w.probs)
			if err != nil {
				return nil, err
			}
			m.scenarios.Add(int64(len(fs.Scenarios)))
			clear(sum)
			for _, q := range fs.Scenarios {
				cut = q.CutInto(cut)
				if err := w.credit.fill(q, cut, c); err != nil {
					return nil, err
				}
				for f, v := range c {
					// The conversion rounds the term before the add, so no
					// platform fuses the two into one multiply-add.
					sum[f] += float64(w.weight * q.Prob * v)
				}
			}
			for f, v := range sum {
				part[f] += v
			}
		}
		return part, nil
	})
	if err != nil {
		return Availability{}, err
	}
	return summarize(par.SumVectors(partials, nFlows)), nil
}

// Evaluate measures availability for a named scheme at a demand scale.
// Scheme names: ECMP, FFC-1, FFC-2, TeaVar, ARROW, Flexile, Oracle, PreTE,
// PreTE-naive.
func (ev *Evaluator) Evaluate(schemeName string, scale float64) (Availability, error) {
	demands := ev.Env.BaseDemands.Scale(scale)
	return ev.EvaluateDemands(schemeName, demands, demands)
}

// EvaluateDemands separates the demands the scheme plans with from the
// true demands used to judge satisfaction — the workload-uncertainty knob
// of Fig 17 (a scheme without demand prediction plans on stale demand).
func (ev *Evaluator) EvaluateDemands(schemeName string, planned, truth te.Demands) (Availability, error) {
	s, ok := schemeTable[schemeName]
	if !ok {
		return Availability{}, fmt.Errorf("sim: unknown scheme %q", schemeName)
	}
	return ev.evaluate(s, planned, truth)
}

// EvaluatePreTERatio evaluates PreTE with an explicit new-tunnel ratio —
// the §6.4 sensitivity knob of Fig 16.
func (ev *Evaluator) EvaluatePreTERatio(scale, ratio float64) (Availability, error) {
	d := ev.Env.BaseDemands.Scale(scale)
	return ev.evaluate(scheme{newCore: withRatio(ratio), react: predicted}, d, d)
}

// evaluate integrates scheme s over the degradation scenarios. A scheme
// that ignores degradation signals plans once, here, before the fan-out;
// PreTE plans each degradation scenario's worlds inside it.
func (ev *Evaluator) evaluate(s scheme, planned, truth te.Demands) (Availability, error) {
	dss := ev.Env.DegScenarios(ev.Cfg)
	if s.react == predicted {
		// Every worker plans through p on its own goroutine.
		p := ev.planner(s)
		return ev.integrate(len(dss), func(i int) ([]world, error) {
			return ev.predict(p, dss[i], planned, truth)
		})
	}
	var plan *te.Plan
	if s.react != perCut {
		var err error
		if plan, err = ev.staticPlan(s, planned); err != nil {
			return Availability{}, err
		}
	}
	c := ev.creditFor(s.react, plan, planned, truth)
	return ev.integrate(len(dss), func(i int) ([]world, error) {
		ds := dss[i]
		return []world{{ds.Prob, ev.Env.TruthProbs(ev.Cfg, ds.Fiber), c}}, nil
	})
}

// staticPlan computes the single pre-failure plan of a scheme that ignores
// degradation signals.
func (ev *Evaluator) staticPlan(s scheme, demands te.Demands) (*te.Plan, error) {
	if s.newCore != nil {
		// TeaVar's static plan enumerates with core's defaults, not with
		// Cfg.ScenarioOpts as every other planner here does; aligning the
		// two moves bench/ref's TeaVar row.
		p := ev.planner(s)
		p.ScenarioOpts = scenario.DefaultOptions()
		ep, err := p.PlanEpoch(ev.epochInput(demands, nil))
		if err != nil {
			return nil, err
		}
		return ep.Plan, nil
	}
	set, err := ev.enumerate(scenario.Static(ev.Env.PI))
	if err != nil {
		return nil, err
	}
	return s.plan(&te.Input{
		Net: ev.Env.Net, Tunnels: ev.Env.Tunnels, Demands: demands,
		Scenarios: set, Beta: Beta,
	})
}

// predict returns PreTE's worlds for degradation scenario ds: the quiet
// scenario keeps the Theorem 4.1-calibrated plan, and a degraded one splits
// into the episode-fails and episode-benign worlds, with the predictor's
// conditional output (the Quality knob) driving the plan in each.
func (ev *Evaluator) predict(p *core.PreTE, ds DegScenario, planned, truth te.Demands) ([]world, error) {
	if ds.Fiber < 0 {
		ep, err := p.PlanEpoch(ev.epochInput(planned, nil))
		if err != nil {
			return nil, err
		}
		return []world{{ds.Prob, ev.Env.TruthProbs(ev.Cfg, -1), ev.creditFor(instant, ep.Plan, planned, truth)}}, nil
	}
	var ws []world
	for _, branch := range []struct {
		prob float64
		pHat float64
		pCut float64 // the degraded fiber's failure probability in this world
	}{
		{trace.PCutGivenDeg, ev.Quality.PHatFail, 1},
		{1 - trace.PCutGivenDeg, ev.Quality.PHatOK, 0},
	} {
		sig := core.DegradationSignal{Fiber: topology.FiberID(ds.Fiber), PNN: ev.Quality.clampPHat(branch.pHat)}
		ep, err := p.PlanEpoch(ev.epochInput(planned, []core.DegradationSignal{sig}))
		if err != nil {
			return nil, err
		}
		probs := ev.Env.TruthProbs(ev.Cfg, ds.Fiber)
		probs[ds.Fiber] = branch.pCut
		ws = append(ws, world{ds.Prob * branch.prob, probs, ev.creditFor(instant, ep.Plan, planned, truth)})
	}
	return ws, nil
}

func (q PredictorQuality) clampPHat(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// credit judges one plan against the true demands under a reaction.
// Credit is 0 or 1 except inside ARROW's and Flexile's windows.
type credit struct {
	ev    *Evaluator
	react reaction
	plan  *te.Plan // the epoch's plan; nil for the oracle, which plans per cut
	// planned are the demands per-cut plans are computed for; dk is their
	// plan-cache key, built once per evaluation, not per lookup.
	planned te.Demands
	dk      string
	truth   te.Demands
}

// creditFor returns reaction r's credit for plan.
func (ev *Evaluator) creditFor(r reaction, plan *te.Plan, planned, truth te.Demands) credit {
	k := credit{ev: ev, react: r, plan: plan, planned: planned, truth: truth}
	if r != instant {
		k.dk = demandKey(planned)
	}
	return k
}

// fill sets c[f] to the fraction of the epoch during which flow f's full
// demand is delivered under failure scenario q, whose cut set is cut.
func (k *credit) fill(q scenario.Scenario, cut topology.FiberSet, c []float64) error {
	r := k.react
	now := k.plan
	if r == perCut {
		var err error
		if now, err = k.cutPlan(q, cut); err != nil {
			return err
		}
	}
	window := flexileConvergenceS
	if r == restore {
		window = arrowRestorationS
	}
	var post *te.Plan
	built := false
	for f := range c {
		fid, d := routing.FlowID(f), k.truth[f]
		c[f] = 0
		switch {
		case te.Satisfied(now, fid, d, cut):
			c[f] = 1
		case r == restore || r == recompute:
			if !built {
				var err error
				if post, err = k.cutPlan(q, cut); err != nil {
					return err
				}
				built = true
			}
			// ARROW's restored links carry traffic again, so its plan is
			// judged with no cut.
			under := cut
			if r == restore {
				under = nil
			}
			if post != nil && te.Satisfied(post, fid, d, under) {
				c[f] = 1 - window/epochS
			}
		}
	}
	return nil
}

// planKey keys a per-cut plan: the reaction that builds it, the cut, and
// the whole planned demand vector.
type planKey struct {
	react   reaction
	cut     string
	demands string
}

// demandKey is the plan-cache key of a demand vector: the bits of every
// entry.
func demandKey(d te.Demands) string {
	b := make([]byte, 0, 8*len(d))
	for _, v := range d {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return string(b)
}

// cutPlan returns (and caches) the plan k's reaction switches to after
// failure scenario q, whose cut set is cut: ARROW's plan on the partially
// restored network, Flexile's post-failure optimum, or the oracle's
// optimum with detour tunnels for the cut fibers. A failed ARROW or
// Flexile solve is cached as its nil plan (no credit), not retried per
// scenario; a failed oracle plan is an error.
func (k *credit) cutPlan(q scenario.Scenario, cut topology.FiberSet) (*te.Plan, error) {
	ev := k.ev
	return ev.cached(planKey{k.react, cutKey(q.Cut), k.dk}, func() (*te.Plan, error) {
		in := &te.Input{
			Net: ev.Env.Net, Tunnels: ev.Env.Tunnels, Demands: k.planned,
			Scenarios: &scenario.Set{Scenarios: []scenario.Scenario{{Prob: 1}}},
			Beta:      Beta,
		}
		switch k.react {
		case restore:
			// Links that rode cut fibers come back at arrowRestoreFrac of
			// their capacity.
			caps := make(map[topology.LinkID]float64)
			for _, f := range q.Cut {
				for _, lid := range ev.Env.Net.LinksOnFiber(f) {
					caps[lid] = ev.Env.Net.Link(lid).Capacity * arrowRestoreFrac
				}
			}
			in.Net = in.Net.WithCapacities(caps)
			p, _ := te.MinMaxLossPlan(in, nil)
			return p, nil
		case recompute:
			p, _ := te.MinMaxLossPlan(in, cut)
			return p, nil
		}
		// With future knowledge the oracle pre-establishes detour tunnels
		// for the fibers about to fail (the Fig 3 behaviour).
		for _, f := range q.Cut {
			res, err := core.UpdateTunnels(in.Tunnels, f, 1)
			if err != nil {
				return nil, err
			}
			in.Tunnels = res.Tunnels
		}
		return te.MinMaxLossPlan(in, cut)
	})
}

// cached returns the plan stored under key, building it on a miss (see
// memoized): every reader sees one canonical *te.Plan.
func (ev *Evaluator) cached(key planKey, build func() (*te.Plan, error)) (*te.Plan, error) {
	m := ev.metrics()
	return memoized(&ev.mu, ev.plans, key, m.cacheHits, m.cacheMisses, build)
}

// cutKey is the plan-cache key of a scenario's cut: routing.AppendKey over
// its fiber IDs, which Scenario.Cut already holds in ascending order.
func cutKey(cut []topology.FiberID) string { return string(routing.AppendKey(nil, cut)) }

// evalObs bundles the evaluator's metric handles, resolved once per
// evaluation so the per-scenario hot loops touch only lock-free atomics.
// Every handle no-ops when Cfg.Metrics is nil.
type evalObs struct {
	degScenarios *obs.Counter // degradation scenarios evaluated
	scenarios    *obs.Counter // failure scenarios integrated
	evalTime     *obs.Timer   // wall time per degradation-scenario task
	cacheHits    *obs.Counter
	cacheMisses  *obs.Counter
	enumHits     *obs.Counter // scenario enumerations served from the memo
	enumMisses   *obs.Counter // scenario enumerations actually run
}

func (ev *Evaluator) metrics() evalObs {
	r := ev.Cfg.Metrics
	return evalObs{
		degScenarios: r.Counter("sim.deg_scenarios.evaluated"),
		scenarios:    r.Counter("sim.scenarios.evaluated"),
		evalTime:     r.Timer("sim.scenario.eval_time"),
		cacheHits:    r.Counter("sim.plan_cache.hits"),
		cacheMisses:  r.Counter("sim.plan_cache.misses"),
		enumHits:     r.Counter("sim.enum_cache.hits"),
		enumMisses:   r.Counter("sim.enum_cache.misses"),
	}
}
