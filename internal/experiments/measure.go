package experiments

import (
	"fmt"
	"io"
	"math"

	"prete/internal/routing"
	"prete/internal/stats"
	"prete/internal/topology"
	"prete/internal/trace"
)

// traceFor builds the shared year-scale synthetic production trace.
func traceFor(opts Options) (*trace.Trace, error) {
	net, err := topology.TWAN(opts.Seed)
	if err != nil {
		return nil, err
	}
	cfg := trace.DefaultConfig(opts.Seed)
	if opts.Quick {
		cfg.Days = 120
	}
	return trace.Generate(cfg, net)
}

func init() {
	register("fig1a", "Transmission loss of fibers that encounter cuts in a typical week", fig1a)
	register("fig1b", "CDF of lost IP capacity caused by fiber cuts, per region", fig1b)
	register("fig1c", "Average affected flows and tunnels per fiber cut", fig1c)
	register("fig4a", "Length distribution of fiber degradation", fig4a)
	register("fig4b", "A link transitions to a degraded state before failing", fig4b)
	register("fig5a", "CDF of time from degradation to the following cut", fig5a)
	register("fig5b", "Normalized number of fiber events", fig5b)
	register("fig6", "Failure proportion across the four critical features", fig6)
	register("tab1", "Chi-square p-values of the critical features", tab1)
	register("tab6-7", "Degradation/failure contingency tables (Appendix A.1)", tab67)
	register("fig12", "Degradation-failure linearity and degradation-probability CDF", fig12)
	register("fig20a", "Coverage and occurrence vs telemetry granularity (Appendix A.8)", fig20a)
}

// fig1a prints a week of loss samples for up to four fibers that cut.
func fig1a(w io.Writer, opts Options) error {
	tr, err := traceFor(opts)
	if err != nil {
		return err
	}
	const week = 7 * 24 * 3600
	// pick fibers whose first cut lands inside week 2 of the trace
	var fibers []int
	var cutAt []int64
	seen := map[int]bool{}
	for _, c := range tr.Cuts {
		if c.AtUnixS < week || c.AtUnixS >= 2*week || seen[c.Fiber] {
			continue
		}
		seen[c.Fiber] = true
		fibers = append(fibers, c.Fiber)
		cutAt = append(cutAt, c.AtUnixS)
		if len(fibers) == 4 {
			break
		}
	}
	if len(fibers) == 0 {
		return fmt.Errorf("fig1a: no cuts in the selected week")
	}
	header(w, "fiber", "hour_of_week", "loss_dB", "state")
	for i, fi := range fibers {
		s, err := tr.LossSeries(fi, week, 2*week, 3600)
		if err != nil {
			return err
		}
		for h, smp := range s {
			// print a sparse series: every 12 hours plus the cut region
			nearCut := math.Abs(float64(smp.UnixS-cutAt[i])) < 2*3600
			if h%12 != 0 && !nearCut {
				continue
			}
			fmt.Fprintf(w, "fiber%d\t%d\t%.2f\t%s\n", fi, h, smp.LossDB, smp.State)
		}
	}
	return nil
}

// fig1b prints the per-region CDF of lost IP capacity per cut.
func fig1b(w io.Writer, opts Options) error {
	tr, err := traceFor(opts)
	if err != nil {
		return err
	}
	byRegion := tr.LostCapacityByRegion()
	header(w, "region", "quantile", "lost_capacity_Gbps")
	for _, region := range tr.Net.Regions() {
		losses := byRegion[region]
		if len(losses) == 0 {
			continue
		}
		ecdf := stats.NewECDF(losses)
		for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1.0} {
			fmt.Fprintf(w, "%s\tp%02.0f\t%.0f\n", region, q*100, ecdf.Quantile(q))
		}
	}
	med := stats.NewECDF(flatten(byRegion)).Quantile(0.5)
	fmt.Fprintf(w, "# median lost capacity across regions: %.1f Tbps (paper: >50%% of cuts lose >= 4 Tbps)\n", med/1000)
	return nil
}

func flatten(m map[string][]float64) []float64 {
	var out []float64
	for _, v := range m {
		out = append(out, v...)
	}
	return out
}

// fig1c prints the average fraction of flows/tunnels affected by a single
// fiber cut on each topology.
func fig1c(w io.Writer, opts Options) error {
	header(w, "topology", "avg_affected_flows_%", "avg_affected_tunnels_%")
	for _, name := range []string{"B4", "IBM", "TWAN"} {
		net, err := topology.ByName(name)
		if err != nil {
			return err
		}
		ts, err := routing.BuildTunnels(net, routing.Flows(net), 4)
		if err != nil {
			return err
		}
		var flowFrac, tunnelFrac float64
		for _, f := range net.Fibers {
			flowFrac += float64(len(ts.FlowsThroughFiber(f.ID))) / float64(len(ts.Flows))
			tunnelFrac += float64(len(ts.TunnelsThroughFiber(f.ID))) / float64(ts.NumTunnels())
		}
		n := float64(len(net.Fibers))
		fmt.Fprintf(w, "%s\t%.1f\t%.1f\n", name, 100*flowFrac/n, 100*tunnelFrac/n)
	}
	fmt.Fprintln(w, "# paper (B4): 33% of flows, 13% of tunnels affected per cut")
	return nil
}

// fig4a prints the degradation-duration ECDF.
func fig4a(w io.Writer, opts Options) error {
	tr, err := traceFor(opts)
	if err != nil {
		return err
	}
	ecdf := stats.NewECDF(tr.DurationsS())
	header(w, "duration_s", "CDF")
	for _, x := range []float64{1, 2, 5, 10, 30, 60, 300, 1200, 3600} {
		fmt.Fprintf(w, "%.0f\t%.3f\n", x, ecdf.At(x))
	}
	fmt.Fprintf(w, "# P(duration <= 10s) = %.2f (paper: ~0.5)\n", ecdf.At(10))
	return nil
}

// fig4b prints the §3.1 zoom: a degradation preceding a cut at 1s vs 3min
// granularity.
func fig4b(w io.Writer, opts Options) error {
	tr, err := traceFor(opts)
	if err != nil {
		return err
	}
	for _, c := range tr.Cuts {
		if !c.Predictable {
			continue
		}
		from, to := c.AtUnixS-240, c.AtUnixS+60
		fine, err := tr.LossSeries(c.Fiber, from, to, 1)
		if err != nil {
			return err
		}
		header(w, "t_s", "loss_1s_dB", "state")
		for i, smp := range fine {
			if i%15 != 0 {
				continue
			}
			fmt.Fprintf(w, "%d\t%.2f\t%s\n", i, smp.LossDB, smp.State)
		}
		coarse, err := tr.LossSeries(c.Fiber, from, to, 180)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "# 3-minute samples over the same window:")
		for i, smp := range coarse {
			fmt.Fprintf(w, "# t=%ds loss=%.2f state=%s\n", i*180, smp.LossDB, smp.State)
		}
		return nil
	}
	return fmt.Errorf("fig4b: no predictable cut in trace")
}

// fig5a prints the degradation-to-cut delay CDF.
func fig5a(w io.Writer, opts Options) error {
	tr, err := traceFor(opts)
	if err != nil {
		return err
	}
	delays := tr.DegradationToCutDelays()
	if len(delays) == 0 {
		return fmt.Errorf("fig5a: no delays")
	}
	ecdf := stats.NewECDF(delays)
	header(w, "delay_s", "CDF")
	for _, x := range []float64{10, 60, 300, 1e3, 1e4, 1e5, 1e6, 1e7} {
		fmt.Fprintf(w, "%.0e\t%.3f\n", x, ecdf.At(x))
	}
	fmt.Fprintf(w, "# P(delay <= 1e3 s) = %.2f (paper: ~0.6)\n", ecdf.At(1e3))
	return nil
}

// fig5b prints the normalized event counts.
func fig5b(w io.Writer, opts Options) error {
	tr, err := traceFor(opts)
	if err != nil {
		return err
	}
	c := tr.Counts()
	norm := float64(c.PredictableCuts)
	if norm == 0 {
		norm = 1
	}
	header(w, "event", "count", "normalized")
	fmt.Fprintf(w, "degradations\t%d\t%.2f\n", c.Degradations, float64(c.Degradations)/norm)
	fmt.Fprintf(w, "fiber_cuts\t%d\t%.2f\n", c.Cuts, float64(c.Cuts)/norm)
	fmt.Fprintf(w, "predictable_cuts\t%d\t%.2f\n", c.PredictableCuts, 1.0)
	fmt.Fprintf(w, "# alpha = %.2f (paper: ~%.2f), P(cut|deg) = %.2f (paper: ~%.2f)\n", c.Alpha(), trace.PredictableFrac, c.PCutGivenDeg(), trace.PCutGivenDeg)
	return nil
}

// fig6 prints the failure proportion per binned feature value.
func fig6(w io.Writer, opts Options) error {
	tr, err := traceFor(opts)
	if err != nil {
		return err
	}
	ds := tr.Dataset()
	features := []struct {
		name string
		get  func(e trace.LabeledExample) float64
		bins int
	}{
		{"time_h", func(e trace.LabeledExample) float64 { return float64(e.Features.HourOfDay) }, 8},
		{"degree_dB", func(e trace.LabeledExample) float64 { return e.Features.DegreeDB }, 7},
		{"gradient_dB", func(e trace.LabeledExample) float64 { return e.Features.GradientDB }, 7},
		{"fluctuation", func(e trace.LabeledExample) float64 { return e.Features.Fluctuation }, 7},
	}
	header(w, "feature", "bin_center", "failure_proportion", "n")
	for _, f := range features {
		vals := make([]float64, len(ds))
		for i, e := range ds {
			vals[i] = f.get(e)
		}
		idx, err := stats.EqualWidthBins(vals, f.bins)
		if err != nil {
			return err
		}
		lo, hi := minMax(vals)
		width := (hi - lo) / float64(f.bins)
		counts := make([]int, f.bins)
		fails := make([]int, f.bins)
		for i, b := range idx {
			counts[b]++
			if ds[i].Failed {
				fails[b]++
			}
		}
		for b := 0; b < f.bins; b++ {
			if counts[b] == 0 {
				continue
			}
			center := lo + width*(float64(b)+0.5)
			fmt.Fprintf(w, "%s\t%.2f\t%.2f\t%d\n", f.name, center, float64(fails[b])/float64(counts[b]), counts[b])
		}
	}
	return nil
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return lo, hi
}

// tab1 prints the chi-square p-values of Table 1.
func tab1(w io.Writer, opts Options) error {
	tr, err := traceFor(opts)
	if err != nil {
		return err
	}
	ds := tr.Dataset()
	failed := make([]bool, len(ds))
	get := map[string]func(e trace.LabeledExample) float64{
		"gradient":    func(e trace.LabeledExample) float64 { return e.Features.GradientDB },
		"time":        func(e trace.LabeledExample) float64 { return float64(e.Features.HourOfDay) },
		"degree":      func(e trace.LabeledExample) float64 { return e.Features.DegreeDB },
		"fluctuation": func(e trace.LabeledExample) float64 { return e.Features.Fluctuation },
	}
	for i, e := range ds {
		failed[i] = e.Failed
	}
	header(w, "characteristic", "p_value", "rejected(0.01)")
	for _, name := range []string{"gradient", "time", "degree", "fluctuation"} {
		vals := make([]float64, len(ds))
		for i, e := range ds {
			vals[i] = get[name](e)
		}
		res, err := stats.FeatureChiSquare(vals, failed, 8)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\t%.2e\t%v\n", name, res.PValue, res.Rejected(0.01))
	}
	fmt.Fprintln(w, "# paper: gradient 1.1e-7, time 1e-6, degree 2.2e-13, fluctuation 1e-11")
	return nil
}

// tab67 prints the Appendix A.1 contingency analysis.
func tab67(w io.Writer, opts Options) error {
	tr, err := traceFor(opts)
	if err != nil {
		return err
	}
	tab := tr.ContingencyTable15Min()
	res, err := stats.ChiSquareIndependence(tab)
	if err != nil {
		return err
	}
	header(w, "", "#degradation", "#no_degradation")
	fmt.Fprintf(w, "#failure\t%.1f\t%.1f\n", tab.Counts[1][1], tab.Counts[1][0])
	fmt.Fprintf(w, "#no_failure\t%.1f\t%.1f\n", tab.Counts[0][1], tab.Counts[0][0])
	fmt.Fprintf(w, "chi2 = %.1f, p = %.2e, rejected(0.01) = %v (paper: p < 1e-50)\n",
		res.Statistic, res.PValue, res.Rejected(0.01))
	return nil
}

// fig12 prints the linear fit of cuts vs degradations and the Weibull CDF
// of degradation probabilities.
func fig12(w io.Writer, opts Options) error {
	tr, err := traceFor(opts)
	if err != nil {
		return err
	}
	degs, cuts := tr.PerFiberCounts()
	slope, intercept, err := stats.LinearFit(degs, cuts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "(a) linear fit: cuts = %.2f * degradations + %.2f (paper: approximately linear)\n", slope, intercept)
	ecdf := stats.NewECDF(tr.DegProb)
	header(w, "deg_probability", "CDF")
	for _, x := range []float64{1e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2} {
		fmt.Fprintf(w, "%.0e\t%.3f\n", x, ecdf.At(x))
	}
	lo, hi := minMax(tr.DegProb)
	fmt.Fprintf(w, "# probabilities span %.1fx (paper: orders of magnitude)\n", hi/lo)
	return nil
}

// fig20a prints the Appendix A.8 granularity sweep.
func fig20a(w io.Writer, opts Options) error {
	tr, err := traceFor(opts)
	if err != nil {
		return err
	}
	pts := tr.GranularitySweep([]int{1, 10, 30, 60, 180, 300})
	header(w, "granularity_s", "coverage", "occurrence")
	for _, p := range pts {
		fmt.Fprintf(w, "%d\t%.3f\t%.3f\n", p.GranularityS, p.Coverage, p.Occurrence)
	}
	fmt.Fprintln(w, "# paper: coverage 25% at 1s, ~2% at 5min")
	return nil
}
