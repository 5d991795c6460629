package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"prete/internal/core"
	"prete/internal/par"
	"prete/internal/routing"
	"prete/internal/sim"
	"prete/internal/stats"
	"prete/internal/te"
	"prete/internal/topology"
	"prete/internal/wan"
)

func init() {
	register("fig13", "Availability vs demand scale for PreTE and state-of-the-art TE", fig13)
	register("tab4", "PreTE's satisfied-demand gain at availability levels", tab4)
	register("fig15", "Impact of prediction accuracy on availability", fig15)
	register("fig16", "Impact of creating new tunnels on availability and TE runtime", fig16)
	register("fig17", "Impact of workload vs capacity uncertainty", fig17)
	register("fig18", "Production case: predictive rerouting across four sites", fig18)
	register("fig19", "Tunnel traffic variation by uncertainty source (Appendix A.7)", fig19)
	register("fig20b", "Availability vs fraction of predictable cuts (Appendix A.9)", fig20b)
}

func evalConfig(opts Options) sim.Config {
	cfg := sim.DefaultConfig()
	// Full runs are sized for a single-core box: enough degradation
	// scenarios and failure scenarios to pin the shapes, not the tails.
	cfg.ScenarioOpts.MaxScenarios = 250
	cfg.MaxDegScenarios = 6
	cfg.Parallelism = opts.Parallelism
	cfg.SolveBudget = opts.Budget
	cfg.Metrics = opts.Metrics
	if opts.Quick {
		cfg.ScenarioOpts.MaxScenarios = 120
		cfg.MaxDegScenarios = 4
	}
	return cfg
}

// evalGrid fills the (scheme, scale) availability matrix of one evaluator,
// fanning the independent cells across workers. Results land in an
// index-addressed grid (grid[si][ci] for schemes[si] at scales[ci]), so
// callers print rows in a fixed order and the output is byte-identical at
// every parallelism level. Cell evaluations also share the evaluator's
// post-failure plan caches, which the evaluator guards internally.
func evalGrid(ev *sim.Evaluator, schemes []string, scales []float64, parallelism int) ([][]sim.Availability, error) {
	flat, err := par.MapErr(len(schemes)*len(scales), parallelism, func(i int) (sim.Availability, error) {
		scheme, scale := schemes[i/len(scales)], scales[i%len(scales)]
		a, err := ev.Evaluate(scheme, scale)
		if err != nil {
			return sim.Availability{}, fmt.Errorf("%s@%v: %w", scheme, scale, err)
		}
		return a, nil
	})
	if err != nil {
		return nil, err
	}
	grid := make([][]sim.Availability, len(schemes))
	for si := range schemes {
		grid[si] = flat[si*len(scales) : (si+1)*len(scales)]
	}
	return grid, nil
}

func sweepSpec(opts Options) (topos []string, schemes []string, scales []float64) {
	if opts.Quick {
		return []string{"B4"},
			[]string{"ECMP", "FFC-1", "TeaVar", "Flexile", "PreTE"},
			[]float64{1, 2, 3, 4}
	}
	return []string{"B4", "IBM"},
		[]string{"ECMP", "FFC-1", "FFC-2", "TeaVar", "ARROW", "Flexile", "PreTE", "Oracle"},
		[]float64{1, 2.5, 4, 6}
}

// fig13 sweeps demand scales across topologies and schemes. The (scheme,
// scale) cells of each topology are independent, so they fan out across
// workers; rows print from the merged grid in sweep order.
func fig13(w io.Writer, opts Options) error {
	cfg := evalConfig(opts)
	topos, schemes, scales := sweepSpec(opts)
	header(w, "topology", "scheme", "scale", "availability", "nines")
	for _, topo := range topos {
		env, err := sim.BuildEnv(topo, opts.Seed, cfg)
		if err != nil {
			return err
		}
		grid, err := evalGrid(sim.NewEvaluator(env, cfg), schemes, scales, opts.Parallelism)
		if err != nil {
			return fmt.Errorf("fig13 %s/%w", topo, err)
		}
		for si, scheme := range schemes {
			for ci, scale := range scales {
				a := grid[si][ci]
				fmt.Fprintf(w, "%s\t%s\t%.1f\t%s\n", topo, scheme, scale, availCell(a))
			}
		}
	}
	fmt.Fprintln(w, "# paper: PreTE sustains ~2x the demand of TeaVar/FFC at equal availability")
	return nil
}

// sustainedScale finds, by linear interpolation on an availability-vs-scale
// grid, the largest demand scale at which a scheme keeps the target
// availability.
func sustainedScale(scales []float64, avail []float64, target float64) float64 {
	best := 0.0
	for i := range scales {
		if avail[i] >= target {
			best = scales[i]
			// interpolate toward the crossing with the next point
			if i+1 < len(scales) && avail[i+1] < target {
				span := avail[i] - avail[i+1]
				if span > 0 {
					best = scales[i] + (scales[i+1]-scales[i])*(avail[i]-target)/span
				}
			}
		}
	}
	return best
}

// tab4 derives PreTE's satisfied-demand gain from the sweep.
func tab4(w io.Writer, opts Options) error {
	cfg := evalConfig(opts)
	topo := "IBM"
	schemes := []string{"Flexile", "FFC-1", "FFC-2", "TeaVar", "ARROW", "PreTE"}
	scales := []float64{1, 2, 3, 4, 6}
	if opts.Quick {
		topo = "B4"
		schemes = []string{"Flexile", "TeaVar", "PreTE"}
		scales = []float64{1, 2, 3, 4}
	}
	env, err := sim.BuildEnv(topo, opts.Seed, cfg)
	if err != nil {
		return err
	}
	cells, err := evalGrid(sim.NewEvaluator(env, cfg), schemes, scales, opts.Parallelism)
	if err != nil {
		return err
	}
	grid := make(map[string][]float64, len(schemes))
	for si, scheme := range schemes {
		for _, a := range cells[si] {
			grid[scheme] = append(grid[scheme], a.Mean)
		}
	}
	levels := []float64{0.9995, 0.999, 0.995, 0.99}
	if opts.Quick {
		levels = []float64{0.99, 0.95}
	}
	header(w, "availability", "scheme", "sustained_scale", "PreTE_gain")
	for _, level := range levels {
		pre := sustainedScale(scales, grid["PreTE"], level)
		for _, scheme := range schemes {
			s := sustainedScale(scales, grid[scheme], level)
			gain := "NA"
			if s > 0 {
				gain = fmt.Sprintf("%.1fx", pre/s)
			}
			fmt.Fprintf(w, "%.4f\t%s\t%.2f\t%s\n", level, scheme, s, gain)
		}
	}
	fmt.Fprintln(w, "# paper (IBM): PreTE gains 1.5-3.4x over the baselines across levels")
	return nil
}

// fig15 sweeps prediction quality (the Table 5 model zoo) at a fixed set of
// scales.
func fig15(w io.Writer, opts Options) error {
	cfg := evalConfig(opts)
	topo := "IBM"
	scales := []float64{1, 3}
	if opts.Quick {
		topo = "B4"
		scales = []float64{2, 4}
	}
	env, err := sim.BuildEnv(topo, opts.Seed, cfg)
	if err != nil {
		return err
	}
	qualities := []sim.PredictorQuality{
		{Name: "TeaVar-pred", PHatFail: 0.003, PHatOK: 0.003},
		{Name: "Statistic", PHatFail: 0.55, PHatOK: 0.35},
		{Name: "DT", PHatFail: 0.65, PHatOK: 0.30},
		sim.NNQuality(),
		sim.OracleQuality(),
	}
	header(w, "predictor", "scale", "availability", "nines")
	// One evaluator per predictor quality; the (quality, scale) cells are
	// independent and fan out, printing from the merged grid in order.
	evs := make([]*sim.Evaluator, len(qualities))
	for qi, q := range qualities {
		evs[qi] = sim.NewEvaluator(env, cfg)
		evs[qi].Quality = q
	}
	grid, err := par.MapErr(len(qualities)*len(scales), opts.Parallelism, func(i int) (sim.Availability, error) {
		return evs[i/len(scales)].Evaluate("PreTE", scales[i%len(scales)])
	})
	if err != nil {
		return err
	}
	for qi, q := range qualities {
		for ci, scale := range scales {
			a := grid[qi*len(scales)+ci]
			fmt.Fprintf(w, "%s\t%.1f\t%s\n", q.Name, scale, availCell(a))
		}
	}
	fmt.Fprintln(w, "# paper: better predictors keep more nines; the NN tracks the oracle closely")
	return nil
}

// fig16 sweeps the new-tunnel ratio, reporting availability and the TE
// runtime including the serialized tunnel installs.
func fig16(w io.Writer, opts Options) error {
	cfg := evalConfig(opts)
	topo := "IBM"
	ratios := []float64{0, 1, 5}
	const scale = 3.0
	if opts.Quick {
		topo = "B4"
		ratios = []float64{0, 1, 2}
	}
	env, err := sim.BuildEnv(topo, opts.Seed, cfg)
	if err != nil {
		return err
	}
	ev := sim.NewEvaluator(env, cfg)
	header(w, "ratio", "availability", "new_tunnels", "te_runtime_s")
	for _, ratio := range ratios {
		a, err := ev.EvaluatePreTERatio(scale, ratio)
		if err != nil {
			return err
		}
		// TE runtime for one representative degradation reaction: compute
		// time + serialized installs.
		p := core.New()
		p.TunnelRatio = ratio
		p.ScenarioOpts = cfg.ScenarioOpts
		budgeted(p.Opt, opts)
		start := time.Now()
		ep, err := p.PlanEpoch(core.EpochInput{
			Net: env.Net, Tunnels: env.Tunnels,
			Demands: env.BaseDemands.Scale(scale), Beta: sim.Beta, PI: env.PI,
			Signals: []core.DegradationSignal{{Fiber: busiestFiber(env), PNN: 0.5}},
		})
		if err != nil {
			return err
		}
		compute := time.Since(start).Seconds()
		newTunnels := 0
		if ep.Update != nil {
			newTunnels = ep.Update.NewTunnels
		}
		runtime := compute + float64(newTunnels)*wan.DefaultSwitchConfig().InstallLatency.Seconds()
		fmt.Fprintf(w, "%.1f\t%.6f\t%d\t%.2f\n", ratio, a.Mean, newTunnels, runtime)
	}
	fmt.Fprintln(w, "# paper: ratio 1 balances runtime (~seconds) and availability; ratio 5 costs tens of seconds")
	return nil
}

func busiestFiber(env *sim.Env) topology.FiberID {
	best, bestN := topology.FiberID(0), -1
	for _, f := range env.Net.Fibers {
		if n := len(env.Tunnels.TunnelsThroughFiber(f.ID)); n > bestN {
			best, bestN = f.ID, n
		}
	}
	return best
}

// fig17 compares workload-uncertainty reduction (demand prediction, the *
// variants) against capacity-uncertainty reduction (failure prediction,
// PreTE vs TeaVar) on B4.
func fig17(w io.Writer, opts Options) error {
	cfg := evalConfig(opts)
	env, err := sim.BuildEnv("B4", opts.Seed, cfg)
	if err != nil {
		return err
	}
	ev := sim.NewEvaluator(env, cfg)
	rng := stats.NewRNG(opts.Seed ^ 0xf17)
	scales := []float64{1, 2.7}
	header(w, "scheme", "scale", "availability", "nines")
	for _, scale := range scales {
		truth := env.BaseDemands.Scale(scale)
		// stale demand: what a scheme without demand prediction plans on
		stale := make(te.Demands, len(truth))
		for i, d := range truth {
			stale[i] = d * (1 + 0.08*rng.NormFloat64())
			if stale[i] < 0 {
				stale[i] = 0
			}
		}
		for _, c := range []struct {
			name    string
			scheme  string
			planned te.Demands
		}{
			{"TeaVar", "TeaVar", stale},
			{"TeaVar*", "TeaVar", truth},
			{"PreTE", "PreTE", stale},
			{"PreTE*", "PreTE", truth},
		} {
			a, err := ev.EvaluateDemands(c.scheme, c.planned, truth)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%s\t%.1f\t%s\n", c.name, scale, availCell(a))
		}
	}
	fmt.Fprintln(w, "# paper: at scale 2.7 failure prediction (TeaVar*->PreTE*) gains far more than demand prediction (TeaVar->TeaVar*)")
	return nil
}

// fig18 reproduces the four-site production case of §7.
func fig18(w io.Writer, opts Options) error {
	net, ts, demands, err := ProductionCase()
	if err != nil {
		return err
	}
	// A fiber on IP link s1-s3 degrades, then cuts.
	degraded, ok := net.FiberBetween(0, 2)
	if !ok {
		return fmt.Errorf("fig18: missing s1-s3 fiber")
	}
	cut := topology.FiberSetOf(degraded)

	// Traditional system: on failure the router switches to the
	// pre-configured backup path (s1->s2->s3), overloading link s1-s2.
	tradLoss := traditionalBackupLoss(net, demands)

	// PreTE: the controller reacts to the degradation signal and "proactively
	// calculates the optimal available backup tunnel, i.e., s1->s4->s3"
	// (§7). Algorithm 1 establishes the candidate detours (both ring
	// directions tie on distance, hence ratio 2) and the load-aware
	// optimizer routes onto the one with spare capacity.
	p := core.New()
	p.TunnelRatio = 2
	budgeted(p.Opt, opts)
	ep, err := p.PlanEpoch(core.EpochInput{
		Net: net, Tunnels: ts, Demands: demands, Beta: 0.99,
		PI:      []float64{0.002, 0.002, 0.002, 0.002, 0.002},
		Signals: []core.DegradationSignal{{Fiber: degraded, PNN: 0.8}},
	})
	if err != nil {
		return err
	}
	var preLoss float64
	for _, fl := range ep.Plan.Tunnels.Flows {
		d := demands[fl.ID]
		preLoss += d - te.DeliveredUnder(ep.Plan, fl.ID, d, cut)
	}
	header(w, "system", "sustained_loss_Gbps")
	fmt.Fprintf(w, "traditional-backup\t%.0f\n", tradLoss)
	fmt.Fprintf(w, "PreTE\t%.0f\n", preLoss)
	fmt.Fprintln(w, "# paper: traditional backup overloads s1-s2 and keeps losing packets until the next TE period; PreTE avoids sustained loss via s1->s4->s3")
	return nil
}

// ProductionCase builds the §7 topology: four sites in a ring
// (s1-s2, s2-s3, s3-s4, s4-s1) plus the s1-s3 diagonal, every IP link
// 1000 Gbps, with flows s1->s2 (700), s1->s3 (600), s4->s3 (300).
func ProductionCase() (*topology.Network, *routing.TunnelSet, te.Demands, error) {
	nodes := []topology.Node{
		{ID: 0, Name: "s1"}, {ID: 1, Name: "s2"}, {ID: 2, Name: "s3"}, {ID: 3, Name: "s4"},
	}
	fibers := []topology.Fiber{
		{ID: 0, A: 0, B: 1, LengthKm: 500},
		{ID: 1, A: 1, B: 2, LengthKm: 500},
		{ID: 2, A: 2, B: 3, LengthKm: 500},
		{ID: 3, A: 3, B: 0, LengthKm: 500},
		{ID: 4, A: 0, B: 2, LengthKm: 650},
	}
	var links []topology.Link
	add := func(src, dst topology.NodeID, f topology.FiberID) {
		links = append(links, topology.Link{
			ID: topology.LinkID(len(links)), Src: src, Dst: dst,
			Capacity: 1000, Fibers: []topology.FiberID{f},
		})
	}
	for _, f := range fibers {
		add(f.A, f.B, f.ID)
		add(f.B, f.A, f.ID)
	}
	net, err := topology.New("production-case", nodes, fibers, links)
	if err != nil {
		return nil, nil, nil, err
	}
	flows := []routing.Flow{
		{ID: 0, Src: 0, Dst: 1}, // s1->s2, 700G
		{ID: 1, Src: 0, Dst: 2}, // s1->s3, 600G
		{ID: 2, Src: 3, Dst: 2}, // s4->s3, 300G
	}
	ts, err := routing.BuildTunnels(net, flows, 1)
	if err != nil {
		return nil, nil, nil, err
	}
	return net, ts, te.Demands{700, 600, 300}, nil
}

// traditionalBackupLoss models the §7 status quo: when the s1-s3 fiber
// cuts, the router locally switches the 600 G flow onto its configured
// backup path s1->s2->s3; the spare bandwidth on s1-s2 (1000 - 700 = 300 G)
// cannot absorb it, so 300 G is lost until the next TE period.
func traditionalBackupLoss(net *topology.Network, demands te.Demands) float64 {
	s1s2, _ := net.LinkBetween(0, 1)
	spare := net.Link(s1s2).Capacity - demands[0]
	loss := demands[1] - spare
	if loss < 0 {
		loss = 0
	}
	return loss
}

// fig19 contrasts tunnel traffic variation caused by workload changes with
// the variation caused by failures (Appendix A.7).
func fig19(w io.Writer, opts Options) error {
	cfg := evalConfig(opts)
	env, err := sim.BuildEnv("B4", opts.Seed, cfg)
	if err != nil {
		return err
	}
	tv := core.NewTeaVar()
	tv.ScenarioOpts = cfg.ScenarioOpts
	budgeted(tv.Opt, opts)
	base := env.BaseDemands.Scale(2)
	plan0, err := tv.PlanEpoch(core.EpochInput{
		Net: env.Net, Tunnels: env.Tunnels, Demands: base, Beta: sim.Beta, PI: env.PI,
	})
	if err != nil {
		return err
	}
	// Workload uncertainty: replan with a jittered demand matrix.
	rng := stats.NewRNG(opts.Seed ^ 0xf19)
	jittered := make(te.Demands, len(base))
	for i, d := range base {
		jittered[i] = d * (1 + 0.05*rng.NormFloat64())
	}
	plan1, err := tv.PlanEpoch(core.EpochInput{
		Net: env.Net, Tunnels: env.Tunnels, Demands: jittered, Beta: sim.Beta, PI: env.PI,
	})
	if err != nil {
		return err
	}
	// Capacity uncertainty: the busiest fiber cuts; surviving tunnels keep
	// their allocation, failed tunnels drop to zero (local rate
	// adaptation), so affected flows see large swings.
	cutFiber := busiestFiber(env)
	cut := topology.FiberSetOf(cutFiber)
	affected := make(map[routing.FlowID]bool)
	for _, fl := range env.Tunnels.FlowsThroughFiber(cutFiber) {
		affected[fl] = true
	}
	var wlAff, wlUnaff, capAff, capUnaff []float64
	for _, t := range env.Tunnels.Tunnels {
		d := base[t.Flow]
		if d <= 0 {
			continue
		}
		wl := abs(plan1.Plan.Alloc[t.ID]-plan0.Plan.Alloc[t.ID]) / d
		post := plan0.Plan.Alloc[t.ID]
		if !t.AvailableUnder(cut) {
			post = 0
		}
		cp := abs(post-plan0.Plan.Alloc[t.ID]) / d
		if affected[t.Flow] {
			wlAff = append(wlAff, wl)
			capAff = append(capAff, cp)
		} else {
			wlUnaff = append(wlUnaff, wl)
			capUnaff = append(capUnaff, cp)
		}
	}
	header(w, "uncertainty", "flow_class", "mean_variation", "p95_variation")
	rows := []struct {
		name, class string
		data        []float64
	}{
		{"workload", "affected", wlAff},
		{"workload", "unaffected", wlUnaff},
		{"capacity", "affected", capAff},
		{"capacity", "unaffected", capUnaff},
	}
	for _, r := range rows {
		if len(r.data) == 0 {
			continue
		}
		sort.Float64s(r.data)
		p95 := int(float64(len(r.data)) * 0.95)
		if p95 >= len(r.data) {
			p95 = len(r.data) - 1
		}
		fmt.Fprintf(w, "%s\t%s\t%.3f\t%.3f\n", r.name, r.class,
			stats.Mean(r.data), r.data[p95])
	}
	fmt.Fprintln(w, "# paper: capacity uncertainty dwarfs workload uncertainty for affected flows")
	return nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// fig20b sweeps alpha, the fraction of predictable cuts.
func fig20b(w io.Writer, opts Options) error {
	cfg := evalConfig(opts)
	alphas := []float64{0.25, 0.9}
	scales := []float64{2, 4}
	topo := "IBM"
	if opts.Quick {
		topo = "B4"
	}
	header(w, "alpha", "scale", "availability", "nines")
	for _, alpha := range alphas {
		c := cfg
		c.Alpha = alpha
		env, err := sim.BuildEnv(topo, opts.Seed, c)
		if err != nil {
			return err
		}
		ev := sim.NewEvaluator(env, c)
		for _, scale := range scales {
			a, err := ev.Evaluate("PreTE", scale)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%.2f\t%.1f\t%s\n", alpha, scale, availCell(a))
		}
	}
	fmt.Fprintln(w, "# paper: more predictable cuts keep availability high even at large scales")
	return nil
}
