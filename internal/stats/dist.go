package stats

import "math"

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
