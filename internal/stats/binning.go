package stats

import (
	"fmt"
	"math"
	"sort"
)

// EqualWidthBins divides [min(values), max(values)] into k intervals of
// equal width and returns, for each value, its bin index in [0, k). This is
// the discretization §3.2 applies to continuous features ("we perform
// equal-width binning") before running the chi-square test.
func EqualWidthBins(values []float64, k int) ([]int, error) {
	if k < 1 {
		return nil, fmt.Errorf("stats: equal-width binning needs k >= 1, got %d", k)
	}
	if len(values) == 0 {
		return nil, fmt.Errorf("stats: equal-width binning on empty data")
	}
	lo, hi := values[0], values[0]
	for _, v := range values {
		if math.IsNaN(v) {
			return nil, fmt.Errorf("stats: NaN in binning input")
		}
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	idx := make([]int, len(values))
	if hi == lo {
		return idx, nil // single degenerate bin 0
	}
	// Divide by k before subtracting so spreads near MaxFloat64 do not
	// overflow to +Inf and poison the bin arithmetic with NaN.
	kf := float64(k)
	span := hi/kf - lo/kf // (hi-lo)/k without overflowing the subtraction
	for i, v := range values {
		f := (v/kf - lo/kf) / span * kf // (v-lo)*k/(hi-lo), in [0, k]
		b := int(f)
		switch {
		case math.IsNaN(f) || b < 0:
			b = 0
		case b >= k: // v == hi lands in the last bin
			b = k - 1
		}
		idx[i] = b
	}
	return idx, nil
}

// FeatureChiSquare bins a continuous feature, cross-tabulates it against a
// binary outcome, and runs the chi-square independence test — the full
// Table 1 procedure for one feature.
func FeatureChiSquare(feature []float64, failed []bool, bins int) (ChiSquareResult, error) {
	if len(feature) != len(failed) {
		return ChiSquareResult{}, fmt.Errorf("stats: feature/outcome length mismatch %d vs %d", len(feature), len(failed))
	}
	idx, err := EqualWidthBins(feature, bins)
	if err != nil {
		return ChiSquareResult{}, err
	}
	// Drop empty bins: chi-square expected counts must be positive, and an
	// all-zero column would silently contribute nothing anyway.
	used := make(map[int]int)
	for _, b := range idx {
		if _, ok := used[b]; !ok {
			used[b] = len(used)
		}
	}
	if len(used) < 2 {
		return ChiSquareResult{}, fmt.Errorf("stats: feature collapses to a single bin")
	}
	t := NewContingencyTable(2, len(used))
	for i, b := range idx {
		row := 0
		if failed[i] {
			row = 1
		}
		t.Add(row, used[b], 1)
	}
	return ChiSquareIndependence(t)
}

// ECDF is an empirical cumulative distribution function over a sample.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF (the input slice is copied).
func NewECDF(sample []float64) *ECDF {
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// At returns the fraction of the sample <= x.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(e.sorted, x)
	// advance past equal values so At is right-continuous
	for i < len(e.sorted) && e.sorted[i] <= x {
		i++
	}
	return float64(i) / float64(len(e.sorted))
}

// Quantile returns the p-quantile of the sample (nearest-rank).
func (e *ECDF) Quantile(p float64) float64 {
	n := len(e.sorted)
	if n == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return e.sorted[0]
	}
	if p >= 1 {
		return e.sorted[n-1]
	}
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return e.sorted[i]
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// LinearFit returns the least-squares slope and intercept of y against x —
// used in §6.1 to fit the linear relationship between per-fiber degradation
// counts and failure counts (Fig 12a).
func LinearFit(x, y []float64) (slope, intercept float64, err error) {
	if len(x) != len(y) || len(x) < 2 {
		return 0, 0, fmt.Errorf("stats: linear fit needs matched samples of length >= 2")
	}
	mx, my := Mean(x), Mean(y)
	var num, den float64
	for i := range x {
		num += (x[i] - mx) * (y[i] - my)
		den += (x[i] - mx) * (x[i] - mx)
	}
	if den == 0 {
		return 0, 0, fmt.Errorf("stats: linear fit on degenerate x")
	}
	slope = num / den
	return slope, my - slope*mx, nil
}
