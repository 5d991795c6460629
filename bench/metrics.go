package main

import (
	"fmt"
	"sort"

	"prete/internal/obs"
	"prete/internal/scenario"
)

// layers are the span layers of the per-layer table, in pipeline order.
var layers = []string{"ingest", "ml", "scenario", "core", "lp", "wan", "persist", "sim", "harness"}

// recoverySamples is how many warm restarts a traced online run performs
// after its last epoch to price persist.recover_ms.
const recoverySamples = 5

// runTraced produces the per-layer metrics. It measures twice, half the
// time each: an untraced system first (Metrics nil, no spans) for the
// baseline the tracing overhead is taken against, then a traced one whose
// spans and registry fill the layer table.
func runTraced(cfg runConfig, in *inputs, ref *reference, chk *checker, out *runOutput) error {
	plain, err := setUp(cfg, in, false)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	base, err := measure(cfg, in, plain, cfg.seconds/2, ref, chk, out)
	plain.close()
	if err != nil {
		return err
	}

	sys, err := setUp(cfg, in, true)
	if err != nil {
		return fmt.Errorf("traced set-up: %w", err)
	}
	defer sys.close()
	before := sys.reg.Snapshot()
	ph, err := measure(cfg, in, sys, cfg.seconds/2, ref, chk, out)
	if err != nil {
		return err
	}
	after := sys.reg.Snapshot()
	mainSpans := len(sys.rec.spans)

	if in.spec.kind == kindOnline {
		// Price recovery on the run's own journal. The restarted controllers
		// fence the site's controller out, so this comes last.
		if err := sys.site.ctl.ReleaseState(); err != nil {
			return err
		}
		for i := 0; i < recoverySamples; i++ {
			if _, err := sys.site.restart(sys.site.leaderDir()); err != nil {
				return fmt.Errorf("recovery sample %d: %w", i, err)
			}
		}
	}
	out.spans = sys.rec.spans
	if err := checkSpans(out.spans); err != nil {
		chk.run("span tree", err)
	}
	var recoverMS []float64
	for _, s := range out.spans {
		if s.Name == "persist.recover" {
			recoverMS = append(recoverMS, float64(s.dur())/1e6)
		}
	}

	lm := &layerTable{sys: sys, ph: ph, before: before, after: after,
		spans: out.spans[:mainSpans], m: out.metrics}
	lm.fill()
	lm.set("persist.recover_ms", median(recoverMS), "ms")
	lm.set("obs.spans", float64(len(out.spans)), "count")
	p50, basep50 := median(ph.ms), median(base.ms)
	lm.set("obs.trace_overhead_pct", 100*(p50-basep50)/basep50, "%")
	return nil
}

// layerTable assembles the per-layer metrics of one traced phase.
type layerTable struct {
	sys           *system
	ph            *phase
	before, after obs.Snapshot
	spans         []span // the measured ops' spans only
	m             map[string]metric
}

func (t *layerTable) set(name string, v float64, unit string) { t.m[name] = metric{v, unit} }

// perOp reports a total divided by the measured ops: a run is bounded by
// time, so only per-op work compares between two runs.
func (t *layerTable) perOp(name string, total float64, unit string) {
	t.set(name, ratio(total, float64(t.ph.n())), unit+"/op")
}

// count is a registry counter's increase over the measured ops.
func (t *layerTable) count(name string) float64 {
	return float64(t.after.Counters[name] - t.before.Counters[name])
}

// timerMS and timerN are a registry timer's increase over the measured ops.
func (t *layerTable) timerMS(name string) float64 {
	return t.after.Timers[name].TotalMS - t.before.Timers[name].TotalMS
}

func (t *layerTable) timerN(name string) float64 {
	return float64(t.after.Timers[name].Count - t.before.Timers[name].Count)
}

// spanMS lists, per op that has it, the summed duration of the named span,
// ascending.
func (t *layerTable) spanMS(name string) []float64 {
	byOp := map[int]float64{}
	for _, s := range t.spans {
		if s.Name == name {
			byOp[s.Op] += float64(s.dur()) / 1e6
		}
	}
	out := make([]float64, 0, len(byOp))
	for _, v := range byOp {
		out = append(out, v)
	}
	sort.Float64s(out)
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (t *layerTable) fill() {
	ph := t.ph

	// ingest, and telemetry inside its span.
	ingest := t.spanMS("ingest.window")
	var ingestTotal float64
	for _, v := range ingest {
		ingestTotal += v
	}
	t.set("ingest.busy_ms_p50", median(ingest), "ms")
	t.perOp("ingest.samples", t.count("ingest.samples.ingested"), "1")
	t.set("ingest.samples_per_s", ratio(t.count("ingest.samples.ingested"), ingestTotal/1e3), "1/s")
	ticks := make([]float64, len(ph.tickNS))
	for i, ns := range ph.tickNS {
		ticks[i] = float64(ns) / 1e3
	}
	sort.Float64s(ticks)
	t.set("ingest.tick_p99_us", percentile(ticks, 0.99), "us")
	t.set("ingest.dropped", t.count("ingest.samples.dropped"), "count")
	t.set("ingest.merged", t.count("ingest.samples.merged"), "count")
	t.perOp("telemetry.samples_observed", t.count("telemetry.samples.observed"), "1")
	t.perOp("telemetry.events", t.count("telemetry.events.detected"), "1")

	// ml.
	predicts := t.spanMS("ml.predict")
	t.set("ml.predict_us_p50", 1e3*median(predicts), "us")
	t.perOp("ml.predict_calls", float64(ph.predicts), "1")
	trainS := 0.0
	if t.sys.site != nil {
		trainS = t.sys.site.trainS
	}
	t.set("ml.train_s", trainS, "s")

	// scenario.
	t.set("scenario.enumerate_ms_p50", median(t.spanMS("scenario.regen")), "ms")
	t.set("scenario.set_size", float64(ph.setSize), "count")
	t.perOp("scenario.delta_unchanged", float64(ph.deltas[scenario.DeltaUnchanged]), "1")
	t.perOp("scenario.delta_prob_only", float64(ph.deltas[scenario.DeltaProbOnly]), "1")
	t.perOp("scenario.delta_structural", float64(ph.deltas[scenario.DeltaStructural]), "1")

	// core and lp. The LP time is the optimizer's own master/subproblem/
	// polish timers; core's self time is the solve span minus it.
	solve := t.spanMS("core.solve")
	t.set("core.solve_ms_p50", median(solve), "ms")
	t.set("core.solve_ms_max", percentile(solve, 1), "ms")
	t.set("core.tunnel_update_ms_p50", median(t.spanMS("core.tunnel_update")), "ms")
	t.perOp("core.benders_iterations", t.count("core.benders.iterations"), "1")
	t.perOp("core.cuts_added", t.count("core.benders.cuts_added"), "1")
	t.perOp("core.cuts_reused", t.count("core.warmcache.cuts_reused"), "1")
	t.perOp("core.work_units", t.count("core.budget.spent"), "1")
	hits, reval, misses := t.count("core.warmcache.hits"), t.count("core.warmcache.revalidated"), t.count("core.warmcache.misses")
	t.perOp("core.cache_hits", hits, "1")
	t.perOp("core.cache_revalidations", reval, "1")
	t.perOp("core.cache_misses", misses, "1")
	// Every solve that is not a heuristic fallback ends in one polish LP.
	useful := 1.0
	if solves := t.timerN("core.benders.polish_solve") + t.count("core.anytime.fallback"); solves > 0 {
		useful = 1 - (t.count("core.anytime.truncated")+t.count("core.anytime.fallback"))/solves
	}
	t.set("core.useful_solve_ratio", useful, "ratio")

	self, _ := layerSelf(t.spans)
	t.set("core.self_ms_p50", median(self["core"])/1e6, "ms")
	t.set("lp.busy_ms_p50", median(ph.lpMS), "ms")
	master, sub, polish := t.timerMS("core.benders.master_solve"), t.timerMS("core.benders.subproblem_solve"), t.timerMS("core.benders.polish_solve")
	t.perOp("lp.master_ms", master, "ms")
	t.perOp("lp.sub_ms", sub, "ms")
	t.perOp("lp.polish_ms", polish, "ms")
	t.perOp("lp.solves", t.timerN("core.benders.master_solve")+t.timerN("core.benders.subproblem_solve")+t.timerN("core.benders.polish_solve"), "1")
	pivots := t.count("core.lp.pivots")
	t.perOp("lp.pivots", pivots, "1")
	t.perOp("lp.bb_nodes", t.count("core.lp.bb_nodes"), "1")
	t.set("lp.ns_per_pivot", ratio(1e6*(master+sub+polish), pivots), "ns")

	// par and sim (the offline path).
	t.perOp("par.tasks", t.count("par.tasks"), "1")
	t.perOp("par.queue_wait_ms", t.timerMS("par.queue_wait"), "ms")
	serialS, speedup := 0.0, 0.0
	schemeS := map[string][]float64{}
	for _, tb := range ph.tables {
		for scheme, s := range tb.schemeS {
			schemeS[scheme] = append(schemeS[scheme], s)
		}
	}
	if t.sys.serial != nil {
		// Speed-up: the set-up's serial table over the median parallel one.
		serialS = t.sys.serial.dur.Seconds()
		speedup = ratio(serialS, median(ph.ms)/1e3)
	}
	t.set("sim.table_serial_s", serialS, "s")
	t.set("sim.par_speedup", speedup, "ratio")
	t.set("sim.prete_s", median(schemeS["PreTE"]), "s")
	t.set("sim.teavar_s", median(schemeS["TeaVar"]), "s")
	t.set("sim.flexile_s", median(schemeS["Flexile"]), "s")
	t.perOp("sim.deg_scenarios", t.count("sim.deg_scenarios.evaluated"), "1")
	t.perOp("sim.scenarios_evaluated", t.count("sim.scenarios.evaluated"), "1")
	t.perOp("sim.plan_cache_hits", t.count("sim.plan_cache.hits"), "1")
	t.perOp("sim.enum_cache_hits", t.count("sim.enum_cache.hits"), "1")

	// wan.
	t.set("wan.install_ms_p50", median(t.spanMS("wan.install")), "ms")
	t.set("wan.rates_ms_p50", median(t.spanMS("wan.rates")), "ms")
	t.perOp("wan.rpcs", t.count("wan.rpc.count"), "1")
	t.set("wan.rpc_us_p50", median(ph.rpcUS), "us")
	t.set("wan.rpc_retries", t.count("wan.rpc.retries"), "count")
	t.set("wan.admission_us_p50", 1e3*median(t.spanMS("wan.admission")), "us")

	// persist. Snapshot and replication counts are the leader's.
	t.set("persist.journal_ms_p50", median(t.spanMS("persist.journal")), "ms")
	t.set("persist.fsync_ms_p50", median(ph.fsyncMS), "ms")
	appends := t.count("persist.appends")
	t.set("persist.append_bytes_per_epoch", ratio(t.count("persist.append_bytes"), appends), "B")
	t.set("persist.ship_ms_p50", median(t.spanMS("persist.ship")), "ms")
	t.perOp("persist.snapshots", t.count("persist.snapshots"), "1")
	t.set("persist.repl_resent", t.count("persist.repl.resent"), "count")

	// Where the op's wall time went: each layer's self time as a share of
	// the ops' root spans, summed over the measured ops.
	var all float64
	sums := map[string]float64{}
	for layer, perOp := range self {
		for _, v := range perOp {
			sums[layer] += v
			all += v
		}
	}
	for _, layer := range layers {
		t.set(layer+".self_share_pct", 100*ratio(sums[layer], all), "%")
	}
}
