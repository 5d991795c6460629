package ml

import (
	"math"
	"testing"

	"prete/internal/optical"
	"prete/internal/stats"
	"prete/internal/topology"
	"prete/internal/trace"
)

// dataset generates a year-scale labeled dataset with the paper's split.
func dataset(t *testing.T, seed uint64) (train, test []trace.LabeledExample) {
	t.Helper()
	net, err := topology.TWAN(seed)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Generate(trace.DefaultConfig(seed), net)
	if err != nil {
		t.Fatal(err)
	}
	train, test, err = tr.Split(0.8)
	if err != nil {
		t.Fatal(err)
	}
	return train, test
}

func TestSoftmax(t *testing.T) {
	p := softmax([]float64{1, 1})
	if math.Abs(p[0]-0.5) > 1e-12 || math.Abs(p[1]-0.5) > 1e-12 {
		t.Fatalf("softmax = %v", p)
	}
	p = softmax([]float64{1000, 0}) // must not overflow
	if p[0] < 0.999 || math.IsNaN(p[0]) {
		t.Fatalf("softmax overflow: %v", p)
	}
	if math.Abs(p[0]+p[1]-1) > 1e-12 {
		t.Fatalf("softmax not normalized: %v", p)
	}
}

func TestReLU(t *testing.T) {
	y := relu([]float64{-1, 0, 2})
	if y[0] != 0 || y[1] != 0 || y[2] != 2 {
		t.Fatalf("relu = %v", y)
	}
	g := reluBackward([]float64{-1, 0, 2}, []float64{5, 5, 5})
	if g[0] != 0 || g[1] != 0 || g[2] != 5 {
		t.Fatalf("relu backward = %v", g)
	}
}

func TestLinearGradient(t *testing.T) {
	// numeric gradient check on a 2x3 layer
	rng := stats.NewRNG(1)
	l := newLinear(3, 2, rng)
	x := []float64{0.5, -1, 2}
	loss := func() float64 {
		y := l.forward(x)
		return y[0]*y[0] + 2*y[1]
	}
	base0 := l.forward(x)
	gradOut := []float64{2 * base0[0], 2}
	gradIn := l.backward(x, gradOut)
	const h = 1e-6
	for i := range x {
		orig := x[i]
		x[i] = orig + h
		up := loss()
		x[i] = orig - h
		down := loss()
		x[i] = orig
		numeric := (up - down) / (2 * h)
		if math.Abs(numeric-gradIn[i]) > 1e-4 {
			t.Fatalf("dL/dx[%d]: analytic %v vs numeric %v", i, gradIn[i], numeric)
		}
	}
	// weight gradient check
	for wi := 0; wi < len(l.w); wi++ {
		orig := l.w[wi]
		l.w[wi] = orig + h
		up := loss()
		l.w[wi] = orig - h
		down := loss()
		l.w[wi] = orig
		numeric := (up - down) / (2 * h)
		if math.Abs(numeric-l.dw[wi]) > 1e-4 {
			t.Fatalf("dL/dw[%d]: analytic %v vs numeric %v", wi, l.dw[wi], numeric)
		}
	}
}

func TestAdamConverges(t *testing.T) {
	// minimize (x-3)^2 via adamState
	var st adamState
	params := []float64{0}
	grads := []float64{0}
	for i := 0; i < 3000; i++ {
		grads[0] = 2 * (params[0] - 3)
		st.step(params, grads, 0.05, 0)
	}
	if math.Abs(params[0]-3) > 0.05 {
		t.Fatalf("Adam converged to %v, want 3", params[0])
	}
}

func TestOversampleBalances(t *testing.T) {
	var ex []trace.LabeledExample
	for i := 0; i < 60; i++ {
		ex = append(ex, trace.LabeledExample{Failed: false})
	}
	for i := 0; i < 40; i++ {
		ex = append(ex, trace.LabeledExample{Failed: true})
	}
	out := Oversample(ex, stats.NewRNG(1))
	pos, neg := 0, 0
	for _, e := range out {
		if e.Failed {
			pos++
		} else {
			neg++
		}
	}
	if pos != neg {
		t.Fatalf("oversample left %d pos vs %d neg", pos, neg)
	}
	// degenerate inputs pass through
	if got := Oversample(ex[:5], stats.NewRNG(1)); len(got) != 5 {
		t.Fatalf("single-class oversample changed size: %d", len(got))
	}
}

func TestFeatureMaskWithout(t *testing.T) {
	m := AllFeatures()
	m2, err := m.Without("fiberID")
	if err != nil {
		t.Fatal(err)
	}
	if m2.FiberID || !m2.Time {
		t.Fatalf("mask = %+v", m2)
	}
	if _, err := m.Without("nonsense"); err == nil {
		t.Fatal("unknown feature accepted")
	}
}

func TestNNLearnsSyntheticRule(t *testing.T) {
	// A separable rule: fail iff degree > 6.5. The NN must learn it.
	rng := stats.NewRNG(5)
	var train, test []trace.LabeledExample
	mk := func(n int) []trace.LabeledExample {
		out := make([]trace.LabeledExample, n)
		for i := range out {
			degree := 3 + 7*rng.Float64()
			out[i] = trace.LabeledExample{
				Features: optical.Features{
					DegreeDB: degree, GradientDB: rng.Float64(),
					Fluctuation: rng.Float64(), HourOfDay: rng.Intn(24),
					FiberID: rng.Intn(10), Region: "R", Vendor: "V", LengthKm: 100,
				},
				Failed: degree > 6.5,
			}
		}
		return out
	}
	train, test = mk(800), mk(200)
	cfg := DefaultNNConfig(7)
	cfg.Epochs = 15
	nn, err := TrainNN(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := Evaluate(nn, test)
	if c.Accuracy() < 0.9 {
		t.Fatalf("NN failed to learn a separable rule: %v", c)
	}
}

func TestTable5Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("minutes-long evaluation suite; skipped in -short mode")
	}
	// The Table 5 ranking must reproduce: NN > DT and Statistic, all far
	// above the naive TeaVar baseline.
	train, test := dataset(t, 2025)
	if len(train) < 500 || len(test) < 100 {
		t.Skipf("dataset too small: %d/%d", len(train), len(test))
	}
	nnCfg := DefaultNNConfig(1)
	nnCfg.Epochs = 12
	nn, err := TrainNN(train, nnCfg)
	if err != nil {
		t.Fatal(err)
	}
	dt, err := TrainDT(train)
	if err != nil {
		t.Fatal(err)
	}
	st, err := TrainStatistic(train)
	if err != nil {
		t.Fatal(err)
	}
	naive := NaiveTeaVar{PI: 0.003}

	cNN := Evaluate(nn, test)
	cDT := Evaluate(dt, test)
	cST := Evaluate(st, test)
	cNaive := Evaluate(naive, test)

	t.Logf("NN %v", cNN)
	t.Logf("DT %v", cDT)
	t.Logf("Statistic %v", cST)
	t.Logf("TeaVar %v", cNaive)

	if cNaive.Recall() != 0 {
		t.Errorf("naive TeaVar should never predict failure, R = %v", cNaive.Recall())
	}
	if cNN.F1() < 0.6 {
		t.Errorf("NN F1 = %v, want >= 0.6 (paper: 0.81)", cNN.F1())
	}
	if cNN.F1() <= cST.F1() {
		t.Errorf("NN (%v) should beat Statistic (%v)", cNN.F1(), cST.F1())
	}
	if cNN.F1() <= cNaive.F1() {
		t.Errorf("NN should beat the naive baseline")
	}
}

func TestDTLearnsThreshold(t *testing.T) {
	rng := stats.NewRNG(9)
	var data []trace.LabeledExample
	for i := 0; i < 500; i++ {
		grad := rng.Float64()
		data = append(data, trace.LabeledExample{
			Features: optical.Features{GradientDB: grad, DegreeDB: 5},
			Failed:   grad > 0.5,
		})
	}
	dt, err := TrainDT(data)
	if err != nil {
		t.Fatal(err)
	}
	c := Evaluate(dt, data)
	if c.Accuracy() < 0.95 {
		t.Fatalf("DT accuracy = %v on a separable rule", c.Accuracy())
	}
	if dt.Depth() < 1 {
		t.Fatal("DT did not split")
	}
}

func TestDTRespectsDepthLimit(t *testing.T) {
	train, _ := dataset(t, 31)
	if len(train) < 100 {
		t.Skip("small dataset")
	}
	dt, err := TrainDT(train)
	if err != nil {
		t.Fatal(err)
	}
	if dt.Depth() > dtMaxDepth {
		t.Fatalf("depth = %d, limit %d", dt.Depth(), dtMaxDepth)
	}
}

func TestStatisticPerFiber(t *testing.T) {
	data := []trace.LabeledExample{
		{Features: optical.Features{FiberID: 1}, Failed: true},
		{Features: optical.Features{FiberID: 1}, Failed: true},
		{Features: optical.Features{FiberID: 1}, Failed: true},
		{Features: optical.Features{FiberID: 2}, Failed: false},
		{Features: optical.Features{FiberID: 2}, Failed: false},
		{Features: optical.Features{FiberID: 2}, Failed: false},
	}
	st, err := TrainStatistic(data)
	if err != nil {
		t.Fatal(err)
	}
	p1 := st.PredictProb(optical.Features{FiberID: 1})
	p2 := st.PredictProb(optical.Features{FiberID: 2})
	if p1 <= p2 {
		t.Fatalf("fiber 1 (always fails) p=%v should exceed fiber 2 p=%v", p1, p2)
	}
	// unseen fiber falls back to the global rate
	if got := st.PredictProb(optical.Features{FiberID: 99}); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("unseen fiber p = %v, want global 0.5", got)
	}
}

func TestOracleIsPerfect(t *testing.T) {
	_, test := dataset(t, 77)
	if len(test) == 0 {
		t.Skip("empty test set")
	}
	o := NewOracle(test)
	c := Evaluate(o, test)
	if c.Accuracy() < 0.999 {
		t.Fatalf("oracle accuracy = %v", c.Accuracy())
	}
}

func TestEmptyTrainingRejected(t *testing.T) {
	if _, err := TrainNN(nil, DefaultNNConfig(1)); err == nil {
		t.Error("NN accepted empty training set")
	}
	if _, err := TrainDT(nil); err == nil {
		t.Error("DT accepted empty training set")
	}
	if _, err := TrainStatistic(nil); err == nil {
		t.Error("Statistic accepted empty training set")
	}
}

func TestPerLinkError(t *testing.T) {
	_, test := dataset(t, 88)
	if len(test) == 0 {
		t.Skip("empty test set")
	}
	o := NewOracle(test)
	errs := PerLinkError(o, test)
	for _, e := range errs {
		if e > 1e-9 {
			t.Fatalf("oracle per-link error %v should be 0", e)
		}
	}
	naive := NaiveTeaVar{PI: 0.003}
	nErrs := PerLinkError(naive, test)
	if stats.Mean(nErrs) <= stats.Mean(errs) {
		t.Fatal("naive baseline should have larger per-link error than the oracle")
	}
}

func TestScalerClamps(t *testing.T) {
	train := []trace.LabeledExample{
		{Features: optical.Features{DegreeDB: 3, GradientDB: 0, Fluctuation: 0, LengthKm: 100}},
		{Features: optical.Features{DegreeDB: 9, GradientDB: 1, Fluctuation: 1, LengthKm: 1000}},
	}
	s := fitScaler(train)
	out := s.scale(optical.Features{DegreeDB: 100, GradientDB: -5, Fluctuation: 0.5, LengthKm: 550})
	if out[0] != 1 || out[1] != 0 {
		t.Fatalf("clamping failed: %v", out)
	}
	if math.Abs(out[2]-0.5) > 1e-9 || math.Abs(out[3]-0.5) > 1e-9 {
		t.Fatalf("midpoint scaling wrong: %v", out)
	}
}
