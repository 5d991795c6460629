package stats

import (
	"fmt"
	"math"
)

// Weibull is the two-parameter Weibull distribution the paper fits to the
// per-fiber degradation probabilities (§6.1, "Weibull distribution
// (shape=0.8, scale=0.002)"). Its scaling property — cX remains Weibull with
// the scale multiplied by c — is what lets the paper derive failure
// probabilities from degradation probabilities via a linear relationship
// while staying consistent with TeaVaR's Weibull failure model.
type Weibull struct {
	Shape float64 // k > 0
	Scale float64 // lambda > 0
}

// Sample draws a Weibull variate via inverse-transform sampling.
func (w Weibull) Sample(r *RNG) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return w.Scale * math.Pow(-math.Log(1-u), 1/w.Shape)
}

// CDF returns P(X <= x).
func (w Weibull) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return 1 - math.Exp(-math.Pow(x/w.Scale, w.Shape))
}

// Quantile returns the p-quantile (inverse CDF).
func (w Weibull) Quantile(p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return math.Inf(1)
	}
	return w.Scale * math.Pow(-math.Log(1-p), 1/w.Shape)
}

// Mean returns E[X] = lambda * Gamma(1 + 1/k).
func (w Weibull) Mean() float64 {
	return w.Scale * math.Gamma(1+1/w.Shape)
}

// Validate reports whether the parameters define a proper distribution.
func (w Weibull) Validate() error {
	if !(w.Shape > 0) || !(w.Scale > 0) {
		return fmt.Errorf("stats: invalid Weibull parameters shape=%v scale=%v", w.Shape, w.Scale)
	}
	return nil
}

// Geometric models the number of epochs until the first failure when the
// per-epoch failure probability is fixed — the model §4.1.2 assumes for
// unpredictable fiber cuts.
type Geometric struct {
	P float64 // per-trial success (failure event) probability in (0, 1]
}

// Sample returns the number of trials up to and including the first success
// (support {1, 2, ...}).
func (g Geometric) Sample(r *RNG) int {
	if g.P >= 1 {
		return 1
	}
	if g.P <= 0 {
		panic("stats: Geometric with non-positive p")
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return 1 + int(math.Floor(math.Log(u)/math.Log(1-g.P)))
}

// CDF returns P(X <= k) for k trials.
func (g Geometric) CDF(k int) float64 {
	if k < 1 {
		return 0
	}
	return 1 - math.Pow(1-g.P, float64(k))
}

// Mean returns E[X] = 1/p.
func (g Geometric) Mean() float64 { return 1 / g.P }

// Exponential is used to draw inter-event times (degradation onsets, repair
// durations) in the synthetic optical trace.
type Exponential struct {
	Rate float64 // events per unit time
}

// Sample draws an exponential variate.
func (e Exponential) Sample(r *RNG) float64 {
	return r.ExpFloat64() / e.Rate
}

// CDF returns P(X <= x).
func (e Exponential) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return 1 - math.Exp(-e.Rate*x)
}

// LogNormal models heavy-tailed positive quantities such as degradation
// durations (Fig 4a: 50% under 10 s with a long tail) and
// degradation-to-cut delays (Fig 5a: 60% within 1000 s, 20% beyond days).
type LogNormal struct {
	Mu    float64 // mean of log X
	Sigma float64 // stddev of log X
}

// Sample draws a log-normal variate.
func (l LogNormal) Sample(r *RNG) float64 {
	return math.Exp(l.Mu + l.Sigma*r.NormFloat64())
}

// CDF returns P(X <= x).
func (l LogNormal) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return 0.5 * math.Erfc(-(math.Log(x)-l.Mu)/(l.Sigma*math.Sqrt2))
}
