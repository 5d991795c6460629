package stats

import (
	"math"
	"testing"
	"testing/quick"
)

// weibullQuantile is the closed-form inverse of Weibull.CDF.
func weibullQuantile(w Weibull, p float64) float64 {
	return w.Scale * math.Pow(-math.Log(1-p), 1/w.Shape)
}

func TestWeibullCDFQuantileRoundTrip(t *testing.T) {
	w := Weibull{Shape: 0.8, Scale: 0.002} // the paper's §6.1 parameters
	for _, p := range []float64{0.01, 0.1, 0.5, 0.9, 0.99} {
		x := weibullQuantile(w, p)
		got := w.CDF(x)
		if math.Abs(got-p) > 1e-9 {
			t.Errorf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
}

func TestWeibullSampleMatchesCDF(t *testing.T) {
	w := Weibull{Shape: 0.8, Scale: 0.002}
	r := NewRNG(21)
	const n = 100000
	med := weibullQuantile(w, 0.5)
	below := 0
	for i := 0; i < n; i++ {
		if w.Sample(r) <= med {
			below++
		}
	}
	frac := float64(below) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("fraction below median = %v", frac)
	}
}

func TestWeibullScalingProperty(t *testing.T) {
	// If X ~ Weibull(k, lambda) then cX ~ Weibull(k, c*lambda): the property
	// §6.1 invokes to keep failure probabilities Weibull-distributed.
	w := Weibull{Shape: 0.8, Scale: 0.002}
	ws := Weibull{Shape: w.Shape, Scale: 3 * w.Scale}
	for _, x := range []float64{0.001, 0.003, 0.01} {
		if got, want := ws.CDF(3*x), w.CDF(x); math.Abs(got-want) > 1e-12 {
			t.Errorf("scaled CDF mismatch at %v: %v vs %v", x, got, want)
		}
	}
}

func TestWeibullMean(t *testing.T) {
	w := Weibull{Shape: 2, Scale: 1} // Rayleigh-like: mean = Gamma(1.5) ≈ 0.8862
	r := NewRNG(11)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += w.Sample(r)
	}
	if got := sum / n; math.Abs(got-math.Sqrt(math.Pi)/2) > 0.01 {
		t.Fatalf("Weibull sample mean = %v", got)
	}
}

func TestLogNormalMedian(t *testing.T) {
	// The median of a log-normal is exp(mu): half the sample falls below it.
	l := LogNormal{Mu: math.Log(10), Sigma: 1.5}
	r := NewRNG(41)
	below, n := 0, 50000
	for i := 0; i < n; i++ {
		if l.Sample(r) <= 10 {
			below++
		}
	}
	if frac := float64(below) / float64(n); math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("fraction below median = %v", frac)
	}
}

// Property: all CDFs are monotone non-decreasing and bounded to [0,1].
func TestQuickCDFMonotone(t *testing.T) {
	w := Weibull{Shape: 0.8, Scale: 0.002}
	l := LogNormal{Mu: 1, Sigma: 2}
	f := func(a, b float64) bool {
		x, y := math.Abs(a), math.Abs(b)
		if x > y {
			x, y = y, x
		}
		for _, cdf := range []func(float64) float64{w.CDF, l.CDF} {
			cx, cy := cdf(x), cdf(y)
			if cx < 0 || cy > 1 || cx > cy+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Weibull samples are always positive.
func TestQuickWeibullPositive(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		w := Weibull{Shape: 0.8, Scale: 0.002}
		for i := 0; i < 16; i++ {
			if w.Sample(r) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
