package sim

import (
	"fmt"
	"slices"
	"sync"

	"prete/internal/core"
	"prete/internal/obs"
	"prete/internal/par"
	"prete/internal/routing"
	"prete/internal/scenario"
	"prete/internal/te"
	"prete/internal/topology"
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
	// post-failure plans. Cache values are pure functions of their keys
	// (the LP solver is deterministic), so a racing duplicate computation
	// produces the same plan and determinism is unaffected.
	mu             sync.Mutex
	recomputeCache map[string]*te.Plan // Flexile post-failure plans
	oracleCache    map[string]*te.Plan // oracle per-cut plans
	restoreCache   map[string]*te.Plan // ARROW post-restoration plans
	// enumCache memoizes scenario enumeration by input fingerprint
	// (probability vector + Cfg.ScenarioOpts). Enumerate is a pure
	// deterministic function of exactly those inputs, so the cached set is
	// interchangeable with a fresh one — and every degradation scenario,
	// every world branch, and every cell of a sweep that lands on the same
	// probabilities (e.g. the quiet-epoch vector, identical across all of
	// ExpFig13's grid cells for a given env) reuses one enumeration
	// instead of paying the O(fibers²) pair sweep again.
	enumCache map[scenario.Fingerprint]*scenario.Set
}

// NewEvaluator builds an evaluator with the NN-quality predictor.
func NewEvaluator(env *Env, cfg Config) *Evaluator {
	return &Evaluator{
		Env: env, Cfg: cfg, Quality: NNQuality(),
		recomputeCache: make(map[string]*te.Plan),
		oracleCache:    make(map[string]*te.Plan),
		restoreCache:   make(map[string]*te.Plan),
		enumCache:      make(map[scenario.Fingerprint]*scenario.Set),
	}
}

// enumerate returns the scenario set for probs under Cfg.ScenarioOpts,
// memoized through enumCache. Sets are shared read-only; concurrent workers
// may duplicate a miss, in which case the first store wins and the racing
// results are identical anyway (Enumerate is deterministic).
func (ev *Evaluator) enumerate(probs []float64) (*scenario.Set, error) {
	m := ev.metrics()
	fp := scenario.FingerprintProbs(probs, ev.Cfg.ScenarioOpts)
	ev.mu.Lock()
	set, ok := ev.enumCache[fp]
	ev.mu.Unlock()
	if ok {
		m.enumHits.Inc()
		return set, nil
	}
	m.enumMisses.Inc()
	set, err := scenario.Enumerate(probs, ev.Cfg.ScenarioOpts)
	if err != nil {
		return nil, err
	}
	ev.mu.Lock()
	if prev, ok := ev.enumCache[fp]; ok {
		set = prev
	} else {
		ev.enumCache[fp] = set
	}
	ev.mu.Unlock()
	return set, nil
}

// integrateScenarios reduces one degradation-scenario task's evaluation
// matrix: contrib fills row (length nFlows, zeroed) with failure scenario
// q's per-flow contribution, and the rows are summed in scenario order.
func integrateScenarios(fs *scenario.Set, nFlows int, contrib func(q scenario.Scenario, row []float64) error) ([]float64, error) {
	out := make([]float64, nFlows)
	row := make([]float64, nFlows)
	for _, q := range fs.Scenarios {
		for i := range row {
			row[i] = 0
		}
		if err := contrib(q, row); err != nil {
			return nil, err
		}
		for i, v := range row {
			out[i] += v
		}
	}
	return out, nil
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
	switch schemeName {
	case "ECMP", "FFC-1", "FFC-2", "TeaVar", "ARROW", "Flexile":
		return ev.evaluateStatic(schemeName, planned, truth)
	case "Oracle":
		return ev.evaluateOracle(planned, truth)
	case "PreTE", "PreTE-naive":
		ratio := 1.0
		if schemeName == "PreTE-naive" {
			ratio = 0
		}
		return ev.evaluatePreTE(planned, truth, ratio)
	default:
		return Availability{}, fmt.Errorf("sim: unknown scheme %q", schemeName)
	}
}

// EvaluatePreTERatio evaluates PreTE with an explicit new-tunnel ratio —
// the §6.4 sensitivity knob of Fig 16.
func (ev *Evaluator) EvaluatePreTERatio(scale, ratio float64) (Availability, error) {
	d := ev.Env.BaseDemands.Scale(scale)
	return ev.evaluatePreTE(d, d, ratio)
}

// staticPlan computes the single pre-failure plan of a static scheme.
func (ev *Evaluator) staticPlan(schemeName string, demands te.Demands) (*te.Plan, error) {
	set, err := ev.enumerate(scenario.Static(ev.Env.PI))
	if err != nil {
		return nil, err
	}
	in := &te.Input{
		Net: ev.Env.Net, Tunnels: ev.Env.Tunnels, Demands: demands,
		Scenarios: set, Beta: ev.Cfg.Beta,
	}
	switch schemeName {
	case "ECMP":
		return te.ECMP{}.Plan(in)
	case "FFC-1":
		return te.FFC{K: 1}.Plan(in)
	case "FFC-2":
		return te.FFC{K: 2}.Plan(in)
	case "TeaVar":
		tv := core.NewTeaVar()
		tv.Opt.Parallelism = ev.Cfg.Parallelism
		tv.Opt.BudgetUnits = ev.Cfg.SolveBudget
		tv.Opt.Metrics = ev.Cfg.Metrics
		ep, err := tv.PlanEpoch(core.EpochInput{
			Net: ev.Env.Net, Tunnels: ev.Env.Tunnels, Demands: demands,
			Beta: ev.Cfg.Beta, PI: ev.Env.PI,
		})
		if err != nil {
			return nil, err
		}
		return ep.Plan, nil
	case "ARROW":
		return te.ARROW{RestorationS: ev.Cfg.ARROWRestorationS}.Plan(in)
	case "Flexile":
		return te.Flexile{ConvergenceS: ev.Cfg.FlexileConvergenceS}.Plan(in)
	}
	return nil, fmt.Errorf("sim: not a static scheme: %q", schemeName)
}

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

// evaluateStatic handles schemes whose plan ignores degradation signals.
// Degradation scenarios are independent given the (single) pre-failure
// plan, so they fan out; each worker fills a per-scenario partial vector
// and the partials merge in scenario order.
func (ev *Evaluator) evaluateStatic(schemeName string, planned, truth te.Demands) (Availability, error) {
	plan, err := ev.staticPlan(schemeName, planned)
	if err != nil {
		return Availability{}, err
	}
	m := ev.metrics()
	nFlows := len(ev.Env.Tunnels.Flows)
	dss := ev.Env.DegScenarios(ev.Cfg)
	partials, err := par.MapErr(len(dss), ev.Cfg.Parallelism, func(di int) ([]float64, error) {
		start := m.evalTime.Start()
		defer m.evalTime.Stop(start)
		defer m.degScenarios.Inc()
		ds := dss[di]
		probs := ev.Env.TruthProbs(ev.Cfg, ds.Fiber)
		fs, err := ev.enumerate(probs)
		if err != nil {
			return nil, err
		}
		m.scenarios.Add(int64(len(fs.Scenarios)))
		// the un-enumerated failure tail counts as loss for every flow
		return integrateScenarios(fs, nFlows, func(q scenario.Scenario, row []float64) error {
			cut := q.CutSet()
			for fi := range row {
				credit := ev.credit(schemeName, plan, planned, truth, routing.FlowID(fi), cut)
				row[fi] += ds.Prob * q.Prob * credit
			}
			return nil
		})
	})
	if err != nil {
		return Availability{}, err
	}
	return summarize(par.SumVectors(partials, nFlows)), nil
}

// credit returns the fraction of the epoch during which the flow's full
// demand is delivered, per the scheme's reaction model.
func (ev *Evaluator) credit(schemeName string, plan *te.Plan, planned, truth te.Demands, f routing.FlowID, cut map[topology.FiberID]bool) float64 {
	d := truth[f]
	if d <= 0 {
		return 1
	}
	okNow := te.Satisfied(plan, f, d, cut)
	switch schemeName {
	case "ARROW":
		if okNow {
			return 1
		}
		// Restoration rebuilds a fraction of the lost capacity on surviving
		// spectrum after the restoration window; the flow is whole again
		// only if the restored network can carry it.
		post := ev.arrowRestore(planned, cut)
		if post != nil && te.Satisfied(post, f, d, nil) {
			return 1 - ev.Cfg.ARROWRestorationS/ev.Cfg.EpochS
		}
		return 0
	case "Flexile":
		if okNow {
			// Unaffected by this failure; recomputation may still shuffle
			// it, but it keeps service.
			return 1
		}
		post := ev.flexileRecompute(planned, cut)
		if post != nil && te.Satisfied(post, f, d, cut) {
			return 1 - ev.Cfg.FlexileConvergenceS/ev.Cfg.EpochS
		}
		return 0
	default: // proactive rate adaptation: instant or nothing
		if okNow {
			return 1
		}
		return 0
	}
}

// cached returns the plan stored under key in cache, computing and storing
// it via build on a miss; a build error is returned and nothing is stored.
// Concurrent workers may duplicate a miss; the deterministic build makes
// both results identical, and the first store wins so every later reader
// sees one canonical *te.Plan.
func (ev *Evaluator) cached(cache map[string]*te.Plan, key string, build func() (*te.Plan, error)) (*te.Plan, error) {
	m := ev.metrics()
	ev.mu.Lock()
	p, ok := cache[key]
	ev.mu.Unlock()
	if ok {
		m.cacheHits.Inc()
		return p, nil
	}
	m.cacheMisses.Inc()
	p, err := build()
	if err != nil {
		return nil, err
	}
	ev.mu.Lock()
	if prev, ok := cache[key]; ok {
		p = prev
	} else {
		cache[key] = p
	}
	ev.mu.Unlock()
	return p, nil
}

// flexileRecompute returns (and caches) the post-failure optimal plan.
func (ev *Evaluator) flexileRecompute(demands te.Demands, cut map[topology.FiberID]bool) *te.Plan {
	key := cutKey(cut) + fmt.Sprintf("|%f", demands[0])
	p, _ := ev.cached(ev.recomputeCache, key, func() (*te.Plan, error) {
		in := &te.Input{
			Net: ev.Env.Net, Tunnels: ev.Env.Tunnels, Demands: demands,
			Scenarios: &scenario.Set{Scenarios: []scenario.Scenario{{Prob: 1}}, Covered: 1},
			Beta:      ev.Cfg.Beta,
		}
		// A failed recompute is cached as its nil plan (no credit), not
		// retried per scenario.
		p, _ := te.Flexile{}.Recompute(in, cut)
		return p, nil
	})
	return p
}

// arrowRestore returns (and caches) the plan on the partially restored
// network: links that rode cut fibers come back at ARROWRestoreFrac of
// their capacity.
func (ev *Evaluator) arrowRestore(demands te.Demands, cut map[topology.FiberID]bool) *te.Plan {
	key := "arrow|" + cutKey(cut) + fmt.Sprintf("|%f", demands[0])
	// As in flexileRecompute, a failed solve is cached as its nil plan.
	p, _ := ev.cached(ev.restoreCache, key, func() (*te.Plan, error) {
		caps := make(map[topology.LinkID]float64)
		for f := range cut {
			if !cut[f] {
				continue
			}
			for _, lid := range ev.Env.Net.LinksOnFiber(f) {
				caps[lid] = ev.Env.Net.Link(lid).Capacity * ev.Cfg.ARROWRestoreFrac
			}
		}
		in := &te.Input{
			Net: ev.Env.Net, Tunnels: ev.Env.Tunnels, Demands: demands,
			Scenarios: &scenario.Set{Scenarios: []scenario.Scenario{{Prob: 1}}, Covered: 1},
			Beta:      ev.Cfg.Beta,
		}
		p, _ := te.MinMaxLossPlanWithCaps(in, nil, caps)
		return p, nil
	})
	return p
}

// cutKey is the canonical plan-cache key of a cut: routing.AppendKey over
// the map's fiber IDs in ascending order.
func cutKey(cut map[topology.FiberID]bool) string {
	ids := make([]topology.FiberID, 0, len(cut))
	for f := range cut {
		ids = append(ids, f)
	}
	slices.Sort(ids)
	return string(routing.AppendKey(nil, ids))
}

// evaluateOracle: per failure scenario, the oracle switches (ahead of the
// failure) to the optimal plan for the post-failure topology, with new
// tunnels for the cut fibers. Degradation scenarios fan out; the per-cut
// oracle plans are shared through the mutex-guarded cache.
func (ev *Evaluator) evaluateOracle(planned, truth te.Demands) (Availability, error) {
	m := ev.metrics()
	nFlows := len(ev.Env.Tunnels.Flows)
	dss := ev.Env.DegScenarios(ev.Cfg)
	partials, err := par.MapErr(len(dss), ev.Cfg.Parallelism, func(di int) ([]float64, error) {
		start := m.evalTime.Start()
		defer m.evalTime.Stop(start)
		defer m.degScenarios.Inc()
		ds := dss[di]
		probs := ev.Env.TruthProbs(ev.Cfg, ds.Fiber)
		fs, err := ev.enumerate(probs)
		if err != nil {
			return nil, err
		}
		m.scenarios.Add(int64(len(fs.Scenarios)))
		return integrateScenarios(fs, nFlows, func(q scenario.Scenario, row []float64) error {
			cut := q.CutSet()
			plan, err := ev.oraclePlan(planned, q.Cut, cut)
			if err != nil {
				return err
			}
			for fi := range row {
				if te.Satisfied(plan, routing.FlowID(fi), truth[fi], cut) {
					row[fi] += ds.Prob * q.Prob
				}
			}
			return nil
		})
	})
	if err != nil {
		return Availability{}, err
	}
	return summarize(par.SumVectors(partials, nFlows)), nil
}

// oraclePlan returns (and caches) the optimal plan for the network after
// scenario q's cut, given as q.Cut and its set form.
func (ev *Evaluator) oraclePlan(demands te.Demands, cutList []topology.FiberID, cut map[topology.FiberID]bool) (*te.Plan, error) {
	key := cutKey(cut) + fmt.Sprintf("|%f", demands[0])
	return ev.cached(ev.oracleCache, key, func() (*te.Plan, error) {
		// With future knowledge the oracle pre-establishes detour tunnels
		// for the fibers about to fail (the Fig 3 behaviour).
		tunnels := ev.Env.Tunnels
		for _, f := range cutList {
			res, err := core.UpdateTunnels(tunnels, f, 1)
			if err != nil {
				return nil, err
			}
			tunnels = res.Tunnels
		}
		in := &te.Input{
			Net: ev.Env.Net, Tunnels: tunnels, Demands: demands,
			Scenarios: &scenario.Set{Scenarios: []scenario.Scenario{{Prob: 1}}, Covered: 1},
			Beta:      ev.Cfg.Beta,
		}
		return te.MinMaxLossPlan(in, cut)
	})
}

// evaluatePreTE: the quiet scenario uses the Theorem 4.1-calibrated static
// plan; each degradation scenario splits into the episode-fails and
// episode-benign worlds, with the predictor's conditional output (the
// Quality knob) driving the plan in each.
func (ev *Evaluator) evaluatePreTE(planned, truth te.Demands, ratio float64) (Availability, error) {
	p := core.New()
	p.TunnelRatio = ratio
	p.ScenarioOpts = ev.Cfg.ScenarioOpts
	p.Alpha = ev.Cfg.Alpha
	p.Opt.Metrics = ev.Cfg.Metrics
	p.Opt.BudgetUnits = ev.Cfg.SolveBudget
	// The fan-out across degradation scenarios owns the worker budget; the
	// optimizer inside each epoch plan runs serially so the two levels
	// don't multiply goroutines. (Either choice yields identical results.)
	p.Opt.Parallelism = 1

	m := ev.metrics()
	nFlows := len(ev.Env.Tunnels.Flows)
	dss := ev.Env.DegScenarios(ev.Cfg)
	partials, err := par.MapErr(len(dss), ev.Cfg.Parallelism, func(di int) ([]float64, error) {
		start := m.evalTime.Start()
		defer m.evalTime.Stop(start)
		defer m.degScenarios.Inc()
		ds := dss[di]
		if ds.Fiber < 0 {
			// Quiet epoch: calibrated plan, no signals.
			ep, err := p.PlanEpoch(core.EpochInput{
				Net: ev.Env.Net, Tunnels: ev.Env.Tunnels, Demands: planned,
				Beta: ev.Cfg.Beta, PI: ev.Env.PI,
			})
			if err != nil {
				return nil, err
			}
			return ev.accumulate(ds.Prob, truth, ep.Plan, ds.Fiber, -1)
		}
		// Degraded epoch: two worlds by the episode's true outcome, summed
		// in world order into this scenario's partial vector.
		part := make([]float64, nFlows)
		for _, world := range []struct {
			prob float64
			pHat float64
			fail bool
		}{
			{ev.Cfg.PCutGivenDeg, ev.Quality.PHatFail, true},
			{1 - ev.Cfg.PCutGivenDeg, ev.Quality.PHatOK, false},
		} {
			ep, err := p.PlanEpoch(core.EpochInput{
				Net: ev.Env.Net, Tunnels: ev.Env.Tunnels, Demands: planned,
				Beta: ev.Cfg.Beta, PI: ev.Env.PI,
				Signals: []core.DegradationSignal{{Fiber: topology.FiberID(ds.Fiber), PNN: ev.Quality.clampPHat(world.pHat)}},
			})
			if err != nil {
				return nil, err
			}
			failFiber := -1
			if world.fail {
				failFiber = ds.Fiber
			}
			w, err := ev.accumulate(ds.Prob*world.prob, truth, ep.Plan, ds.Fiber, failFiber)
			if err != nil {
				return nil, err
			}
			for fi, v := range w {
				part[fi] += v
			}
		}
		return part, nil
	})
	if err != nil {
		return Availability{}, err
	}
	return summarize(par.SumVectors(partials, nFlows)), nil
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

// accumulate integrates a plan's per-flow credit over the failure
// scenarios of one (degradation scenario, world) branch, returning the
// branch's partial availability vector. failFiber >= 0 forces that fiber
// to be cut (the episode truly fails); the remaining fibers fail with the
// Theorem 4.1 residual probability.
func (ev *Evaluator) accumulate(branchProb float64, truth te.Demands, plan *te.Plan, degFiber, failFiber int) ([]float64, error) {
	probs := make([]float64, len(ev.Env.PI))
	for i, p := range ev.Env.PI {
		probs[i] = (1 - ev.Cfg.Alpha) * p
	}
	if failFiber >= 0 {
		probs[failFiber] = 1
	} else if degFiber >= 0 {
		probs[degFiber] = 0 // benign world: this episode does not cut
	}
	fs, err := ev.enumerate(probs)
	if err != nil {
		return nil, err
	}
	ev.metrics().scenarios.Add(int64(len(fs.Scenarios)))
	return integrateScenarios(fs, len(ev.Env.Tunnels.Flows), func(q scenario.Scenario, row []float64) error {
		cut := q.CutSet()
		for fi := range row {
			if te.Satisfied(plan, routing.FlowID(fi), truth[fi], cut) {
				row[fi] += branchProb * q.Prob
			}
		}
		return nil
	})
}
