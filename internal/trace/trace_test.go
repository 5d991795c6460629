package trace

import (
	"math"
	"testing"

	"prete/internal/stats"
	"prete/internal/topology"
)

func genTrace(t *testing.T, seed uint64, days int) *Trace {
	t.Helper()
	net, err := topology.TWAN(seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(seed)
	cfg.Days = days
	tr, err := Generate(cfg, net)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestGenerateValidation(t *testing.T) {
	net, err := topology.B4()
	if err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Days: 0},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg, net); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestTraceMatchesPaperShapes(t *testing.T) {
	tr := genTrace(t, 11, 365)
	c := tr.Counts()
	if c.Degradations < 200 {
		t.Fatalf("only %d degradations in a year; too sparse to validate", c.Degradations)
	}
	// §3.2: ~40% of degradations lead to cuts.
	if got := c.PCutGivenDeg(); math.Abs(got-0.40) > 0.08 {
		t.Errorf("P(cut|deg) = %v, want ~0.40", got)
	}
	// §3.1: ~25% of cuts are predictable.
	if got := c.Alpha(); math.Abs(got-0.25) > 0.08 {
		t.Errorf("alpha = %v, want ~0.25", got)
	}
}

func TestDurationsEphemeral(t *testing.T) {
	tr := genTrace(t, 13, 365)
	ecdf := stats.NewECDF(tr.DurationsS())
	// Fig 4a: 50% of degradations last under ~10 s.
	if got := ecdf.At(10); got < 0.3 || got > 0.7 {
		t.Errorf("P(duration <= 10s) = %v, want around 0.5", got)
	}
}

func TestDeterminism(t *testing.T) {
	a := genTrace(t, 21, 60)
	b := genTrace(t, 21, 60)
	if len(a.Episodes) != len(b.Episodes) || len(a.Cuts) != len(b.Cuts) {
		t.Fatal("same-seed traces differ in event counts")
	}
	for i := range a.Episodes {
		if a.Episodes[i].OnsetUnixS != b.Episodes[i].OnsetUnixS ||
			a.Episodes[i].LedToCut != b.Episodes[i].LedToCut {
			t.Fatalf("episode %d differs", i)
		}
	}
}

func TestPredictableCutsHaveBoundedDelay(t *testing.T) {
	tr := genTrace(t, 31, 180)
	for _, e := range tr.Episodes {
		if !e.LedToCut {
			continue
		}
		if d := e.Profile.CutDelayS; d <= 0 || d > 300 {
			t.Fatalf("predictable cut delay %d outside the 5-minute TE period", d)
		}
	}
}

func TestPerFiberCountsLinear(t *testing.T) {
	tr := genTrace(t, 41, 365)
	degs, cuts := tr.PerFiberCounts()
	slope, intercept, err := stats.LinearFit(degs, cuts)
	if err != nil {
		t.Fatal(err)
	}
	// Fig 12a: approximately linear with slope pCut/alpha = 1.6.
	if slope < 1.1 || slope > 2.1 {
		t.Errorf("slope = %v, want ~1.6", slope)
	}
	if math.Abs(intercept) > 8 {
		t.Errorf("intercept = %v, want near 0", intercept)
	}
}

func TestDegProbSpansOrders(t *testing.T) {
	tr := genTrace(t, 51, 30)
	lo, hi := math.Inf(1), 0.0
	for _, p := range tr.DegProb {
		if p <= 0 {
			t.Fatalf("non-positive degradation probability %v", p)
		}
		lo = math.Min(lo, p)
		hi = math.Max(hi, p)
	}
	// Fig 12b: probabilities differ by orders of magnitude.
	if hi/lo < 10 {
		t.Errorf("degradation probabilities span only %vx", hi/lo)
	}
}

func TestContingencyRejectsIndependence(t *testing.T) {
	tr := genTrace(t, 61, 365)
	tab := tr.ContingencyTable15Min()
	res, err := stats.ChiSquareIndependence(tab)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rejected(0.01) {
		t.Fatalf("degradation/cut independence not rejected: p = %v", res.PValue)
	}
	if res.PValue > 1e-20 {
		t.Errorf("p-value %v much larger than the paper's < 1e-50 scale", res.PValue)
	}
}

func TestFeatureChiSquares(t *testing.T) {
	// Table 1: all four critical features significantly relate to failure.
	tr := genTrace(t, 71, 365)
	ds := tr.Dataset()
	if len(ds) < 300 {
		t.Skipf("dataset too small: %d", len(ds))
	}
	failed := make([]bool, len(ds))
	features := map[string][]float64{
		"time": make([]float64, len(ds)), "degree": make([]float64, len(ds)),
		"gradient": make([]float64, len(ds)), "fluctuation": make([]float64, len(ds)),
	}
	for i, ex := range ds {
		failed[i] = ex.Failed
		features["time"][i] = float64(ex.Features.HourOfDay)
		features["degree"][i] = ex.Features.DegreeDB
		features["gradient"][i] = ex.Features.GradientDB
		features["fluctuation"][i] = ex.Features.Fluctuation
	}
	for name, vals := range features {
		res, err := stats.FeatureChiSquare(vals, failed, 8)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Rejected(0.01) {
			t.Errorf("feature %s not significant: p = %v", name, res.PValue)
		}
	}
}

func TestSplitPerFiberOrdering(t *testing.T) {
	tr := genTrace(t, 81, 180)
	train, test, err := tr.Split(0.8)
	if err != nil {
		t.Fatal(err)
	}
	total := len(train) + len(test)
	if total != len(tr.Episodes) {
		t.Fatalf("split lost examples: %d + %d != %d", len(train), len(test), len(tr.Episodes))
	}
	frac := float64(len(train)) / float64(total)
	if frac < 0.7 || frac > 0.9 {
		t.Fatalf("train fraction = %v", frac)
	}
	if _, _, err := tr.Split(0); err == nil {
		t.Fatal("zero fraction accepted")
	}
}

func TestGranularitySweepMonotone(t *testing.T) {
	tr := genTrace(t, 91, 365)
	pts := tr.GranularitySweep([]int{1, 10, 60, 300})
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	// Appendix A.8: coverage decays with coarser granularity.
	for i := 1; i < len(pts); i++ {
		if pts[i].Coverage > pts[i-1].Coverage+1e-9 {
			t.Fatalf("coverage increased with coarser sampling: %+v", pts)
		}
	}
	if pts[0].Coverage < 0.15 {
		t.Errorf("1s coverage = %v, want ~alpha (0.25)", pts[0].Coverage)
	}
	if pts[3].Coverage > pts[0].Coverage/2 {
		t.Errorf("5-minute coverage %v should be far below 1s coverage %v", pts[3].Coverage, pts[0].Coverage)
	}
}

func TestLossSeriesRendersEvents(t *testing.T) {
	tr := genTrace(t, 101, 60)
	if len(tr.Cuts) == 0 {
		t.Skip("no cuts in short trace")
	}
	c := tr.Cuts[0]
	s, err := tr.LossSeries(c.Fiber, c.AtUnixS-60, c.AtUnixS+60, 1)
	if err != nil {
		t.Fatal(err)
	}
	sawCut := false
	for _, smp := range s {
		if smp.ExcessDB > 20 {
			sawCut = true
		}
	}
	if !sawCut {
		t.Fatal("loss series does not show the scheduled cut")
	}
	if _, err := tr.LossSeries(-1, 0, 10, 1); err == nil {
		t.Fatal("bad fiber accepted")
	}
	if _, err := tr.LossSeries(0, 10, 5, 1); err == nil {
		t.Fatal("inverted window accepted")
	}
}

func TestDegradationToCutDelays(t *testing.T) {
	tr := genTrace(t, 111, 365)
	delays := tr.DegradationToCutDelays()
	if len(delays) == 0 {
		t.Fatal("no delays computed")
	}
	ecdf := stats.NewECDF(delays)
	// Fig 5a: a solid fraction of cuts follow a degradation within 1000s;
	// predictable ones by construction, plus chance co-occurrences.
	if got := ecdf.At(1000); got < 0.2 {
		t.Errorf("P(delay <= 1000s) = %v, want a substantial fraction", got)
	}
	for _, d := range delays {
		if d < 0 {
			t.Fatal("negative delay")
		}
	}
}

func TestLostCapacityByRegion(t *testing.T) {
	tr := genTrace(t, 121, 365)
	byRegion := tr.LostCapacityByRegion()
	if len(byRegion) == 0 {
		t.Fatal("no regions")
	}
	for region, losses := range byRegion {
		for _, l := range losses {
			if l <= 0 {
				t.Fatalf("region %s has non-positive loss %v", region, l)
			}
		}
	}
}

func TestFiberFragilityDrivesOutcomes(t *testing.T) {
	// Appendix A.6: fiber ID is the most informative feature. Verify the
	// generative model honors that: fragile fibers fail more.
	tr := genTrace(t, 131, 365)
	perFiberFail := make(map[int][2]int) // fiber -> {failures, episodes}
	for _, e := range tr.Episodes {
		v := perFiberFail[e.Fiber]
		if e.LedToCut {
			v[0]++
		}
		v[1]++
		perFiberFail[e.Fiber] = v
	}
	var fragileRate, robustRate []float64
	for fi, v := range perFiberFail {
		if v[1] < 10 {
			continue
		}
		rate := float64(v[0]) / float64(v[1])
		if tr.Fragility[fi] > 0.5 {
			fragileRate = append(fragileRate, rate)
		} else if tr.Fragility[fi] < -0.5 {
			robustRate = append(robustRate, rate)
		}
	}
	if len(fragileRate) == 0 || len(robustRate) == 0 {
		t.Skip("insufficient fibers in the fragility tails")
	}
	if stats.Mean(fragileRate) <= stats.Mean(robustRate) {
		t.Errorf("fragile fibers fail at %v <= robust %v", stats.Mean(fragileRate), stats.Mean(robustRate))
	}
}
