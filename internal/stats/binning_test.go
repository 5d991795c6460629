package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEqualWidthBinsBasic(t *testing.T) {
	vals := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	idx, err := EqualWidthBins(vals, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Intervals: [0,2) [2,4) [4,6) [6,8) [8,10], max value joins last bin.
	want := []int{0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 4}
	for i := range idx {
		if idx[i] != want[i] {
			t.Fatalf("bins = %v, want %v", idx, want)
		}
	}
}

func TestEqualWidthBinsDegenerate(t *testing.T) {
	idx, err := EqualWidthBins([]float64{3, 3, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range idx {
		if b != 0 {
			t.Fatalf("constant data should bin to 0, got %v", idx)
		}
	}
}

func TestEqualWidthBinsErrors(t *testing.T) {
	if _, err := EqualWidthBins(nil, 3); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := EqualWidthBins([]float64{1}, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := EqualWidthBins([]float64{math.NaN()}, 2); err == nil {
		t.Error("NaN accepted")
	}
}

func TestQuickBinsInRange(t *testing.T) {
	f := func(raw []float64, kRaw uint8) bool {
		k := int(kRaw%16) + 1
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		idx, err := EqualWidthBins(vals, k)
		if err != nil {
			return false
		}
		for _, b := range idx {
			if b < 0 || b >= k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFeatureChiSquareDetectsDependence(t *testing.T) {
	// Feature strongly determines the outcome -> rejection.
	r := NewRNG(55)
	var feature []float64
	var failed []bool
	for i := 0; i < 2000; i++ {
		x := r.Float64()
		feature = append(feature, x)
		failed = append(failed, r.Float64() < x) // P(fail) grows with x
	}
	res, err := FeatureChiSquare(feature, failed, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rejected(0.01) {
		t.Fatalf("dependent feature not rejected: p = %v", res.PValue)
	}
}

func TestFeatureChiSquareIndependent(t *testing.T) {
	r := NewRNG(56)
	var feature []float64
	var failed []bool
	for i := 0; i < 2000; i++ {
		feature = append(feature, r.Float64())
		failed = append(failed, r.Float64() < 0.4)
	}
	res, err := FeatureChiSquare(feature, failed, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected(0.001) {
		t.Fatalf("independent feature rejected: p = %v", res.PValue)
	}
}

func TestFeatureChiSquareMismatch(t *testing.T) {
	if _, err := FeatureChiSquare([]float64{1, 2}, []bool{true}, 2); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3, 4})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.2}, {2, 0.6}, {3.5, 0.8}, {4, 1}, {100, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if got := e.Quantile(0.5); got != 2 {
		t.Errorf("median = %v", got)
	}
	if len(e.sorted) != 5 {
		t.Errorf("len = %d", len(e.sorted))
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("mean = %v", got)
	}
	if Mean(nil) != 0 {
		t.Error("empty input should yield 0")
	}
}

func TestLinearFit(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{3, 5, 7, 9} // y = 2x + 1
	slope, intercept, err := LinearFit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(slope-2) > 1e-12 || math.Abs(intercept-1) > 1e-12 {
		t.Fatalf("fit = %v, %v", slope, intercept)
	}
	if _, _, err := LinearFit([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("degenerate x accepted")
	}
	if _, _, err := LinearFit([]float64{1}, []float64{2}); err == nil {
		t.Error("short input accepted")
	}
}

func TestConfusionMetrics(t *testing.T) {
	var c Confusion
	// 8 TP, 2 FP, 85 TN, 5 FN
	for i := 0; i < 8; i++ {
		c.Observe(true, true)
	}
	for i := 0; i < 2; i++ {
		c.Observe(true, false)
	}
	for i := 0; i < 85; i++ {
		c.Observe(false, false)
	}
	for i := 0; i < 5; i++ {
		c.Observe(false, true)
	}
	if got := c.Precision(); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("precision = %v", got)
	}
	if got := c.Recall(); math.Abs(got-8.0/13) > 1e-12 {
		t.Errorf("recall = %v", got)
	}
	if got := c.Accuracy(); math.Abs(got-0.93) > 1e-12 {
		t.Errorf("accuracy = %v", got)
	}
	if total := c.TP + c.FP + c.TN + c.FN; total != 100 {
		t.Errorf("total = %d", total)
	}
	var empty Confusion
	if empty.Precision() != 0 || empty.Recall() != 0 || empty.F1() != 0 || empty.Accuracy() != 0 {
		t.Error("empty confusion should report zeros")
	}
}
