// Package optical simulates the physical fiber layer that PreTE's telemetry
// observes: per-second transmission-loss series for each fiber, the
// healthy -> degraded -> cut state machine underlying the paper's §2/§3
// measurements, and the attenuation script the §5 testbed's variable optical
// attenuator (VOA) plays.
//
// Loss conventions follow OpTel [28] as the paper does:
//   - healthy: baseline attenuation (~0.2 dB/km plus connector losses) with
//     small measurement noise;
//   - degraded: an excess loss of 3-10 dB over baseline — the signal still
//     decodes error-free but SNR visibly drops;
//   - cut: an excess loss of >= 10 dB or total loss of signal.
package optical

import (
	"fmt"
	"math"

	"prete/internal/stats"
)

// State is a fiber's physical condition.
type State int

// Fiber states.
const (
	Healthy State = iota
	Degraded
	Cut
)

// String names the fiber state.
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	default:
		return "cut"
	}
}

// Thresholds (dB of excess loss over the healthy baseline) separating the
// states, per OpTel's definitions used in §2.1/§3.1.
const (
	DegradeThresholdDB = 3.0
	CutThresholdDB     = 10.0
	// TxPowerDBm is the constant launch power; RxPower = Tx - loss.
	TxPowerDBm = 3.0
	// BaselinePerKmDB is the healthy attenuation per km of fiber.
	BaselinePerKmDB = 0.2
	// NoiseSigmaDB is the 1-sigma measurement noise on per-second samples.
	NoiseSigmaDB = 0.05
)

// Classify maps an excess loss over baseline to a state.
func Classify(excessDB float64) State {
	switch {
	case excessDB >= CutThresholdDB:
		return Cut
	case excessDB >= DegradeThresholdDB:
		return Degraded
	default:
		return Healthy
	}
}

// DegradationProfile shapes one degradation episode. The four fields map
// one-to-one onto the paper's critical features (§3.2): the onset time is
// the *time* feature, Degree the step size, GradientDB the slope magnitude
// between adjacent seconds, and fluctuations the count of > 0.01 dB swings.
type DegradationProfile struct {
	DegreeDB      float64 // loss step when entering the degraded state (3-10 dB)
	GradientDB    float64 // mean |loss change| per second while degraded
	FluctAmpDB    float64 // amplitude of superimposed fluctuation
	FluctPeriodS  float64 // period of the fluctuation, seconds
	DurationS     int     // length of the degraded interval
	LeadsToCut    bool    // whether the episode ends in a fiber cut
	CutDelayS     int     // seconds from degradation onset to the cut (if any)
	RepairS       int     // cut repair time, seconds
	OnsetUnixS    int64   // absolute onset time (drives the time-of-day feature)
	MissingSample float64 // probability a telemetry sample is lost (interpolated)
}

// Validate checks the profile for physical plausibility.
func (p DegradationProfile) Validate() error {
	if p.DegreeDB < DegradeThresholdDB || p.DegreeDB >= CutThresholdDB {
		return fmt.Errorf("optical: degradation degree %.2f dB outside [%v, %v)", p.DegreeDB, DegradeThresholdDB, CutThresholdDB)
	}
	if p.DurationS <= 0 {
		return fmt.Errorf("optical: non-positive degradation duration %d", p.DurationS)
	}
	if p.LeadsToCut && p.CutDelayS <= 0 {
		return fmt.Errorf("optical: cut with non-positive delay %d", p.CutDelayS)
	}
	return nil
}

// Sample is one per-second telemetry observation of a fiber.
type Sample struct {
	UnixS    int64
	TxDBm    float64
	RxDBm    float64
	LossDB   float64 // Tx - Rx
	ExcessDB float64 // loss over the healthy baseline
	State    State
	Missing  bool // true when the collector lost this sample (pre-interpolation)
}

// FiberSim synthesizes loss series for one fiber.
type FiberSim struct {
	rng      *stats.RNG
	baseline float64
}

// NewFiberSim returns a simulator for a fiber of the given span length.
func NewFiberSim(lengthKm float64, rng *stats.RNG) *FiberSim {
	return &FiberSim{
		rng:      rng,
		baseline: lengthKm*BaselinePerKmDB + 2.0, // + connector/splice losses
	}
}

// BaselineDB returns the healthy-state loss.
func (f *FiberSim) BaselineDB() float64 { return f.baseline }

// HealthySeries generates n seconds of healthy samples starting at t0.
func (f *FiberSim) HealthySeries(t0 int64, n int) []Sample {
	out := make([]Sample, n)
	for i := range out {
		out[i] = f.sample(t0+int64(i), 0, false)
	}
	return out
}

// EpisodeSeries synthesizes the full loss series for one degradation
// episode: a healthy lead-in, the degraded interval shaped by the profile,
// and — when LeadsToCut — the cut plateau until repair. leadInS seconds of
// healthy data precede the onset.
func (f *FiberSim) EpisodeSeries(p DegradationProfile, leadInS int) ([]Sample, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var out []Sample
	t := p.OnsetUnixS - int64(leadInS)
	for i := 0; i < leadInS; i++ {
		out = append(out, f.sample(t, 0, p.MissingSample > 0 && f.rng.Float64() < p.MissingSample))
		t++
	}
	degradedEnd := p.DurationS
	cutAt := -1
	if p.LeadsToCut {
		cutAt = p.CutDelayS
		if cutAt < degradedEnd {
			degradedEnd = cutAt
		}
	}
	// Degraded interval: step to DegreeDB, then drift with GradientDB and
	// oscillate with the fluctuation component.
	level := p.DegreeDB
	for i := 0; i < degradedEnd; i++ {
		excess := level
		if p.FluctAmpDB > 0 && p.FluctPeriodS > 0 {
			excess += p.FluctAmpDB * math.Sin(2*math.Pi*float64(i)/p.FluctPeriodS)
		}
		// keep the excess inside the degraded band
		if excess < DegradeThresholdDB {
			excess = DegradeThresholdDB + 0.1
		}
		if excess >= CutThresholdDB {
			excess = CutThresholdDB - 0.1
		}
		out = append(out, f.sample(t, excess, p.MissingSample > 0 && f.rng.Float64() < p.MissingSample))
		t++
		// random-walk drift with the profile's gradient magnitude
		if f.rng.Bernoulli(0.5) {
			level += p.GradientDB
		} else {
			level -= p.GradientDB
		}
		if level < DegradeThresholdDB+0.2 {
			level = DegradeThresholdDB + 0.2
		}
		if level > CutThresholdDB-0.2 {
			level = CutThresholdDB - 0.2
		}
	}
	if p.LeadsToCut {
		// If the cut lands after the degraded interval recovered, emit the
		// intervening healthy gap.
		for i := degradedEnd; i < p.CutDelayS; i++ {
			out = append(out, f.sample(t, 0, false))
			t++
		}
		repair := p.RepairS
		if repair <= 0 {
			repair = 60
		}
		for i := 0; i < repair; i++ {
			out = append(out, f.sample(t, CutThresholdDB+25, false))
			t++
		}
	}
	// trailing recovery second
	out = append(out, f.sample(t, 0, false))
	return out, nil
}

// sample produces one observation with measurement noise.
func (f *FiberSim) sample(t int64, excessDB float64, missing bool) Sample {
	noise := f.rng.NormFloat64() * NoiseSigmaDB
	loss := f.baseline + excessDB + noise
	return Sample{
		UnixS:    t,
		TxDBm:    TxPowerDBm,
		RxDBm:    TxPowerDBm - loss,
		LossDB:   loss,
		ExcessDB: loss - f.baseline,
		State:    Classify(excessDB),
		Missing:  missing,
	}
}
