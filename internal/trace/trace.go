// Package trace synthesizes the year-scale optical event history that the
// paper measures on Tencent's production WAN. The generator reproduces the
// published marginal shapes so that every downstream consumer — the
// telemetry pipeline, the chi-square analyses of §3, the NN training set of
// §4.1, and the scenario probabilities of §6.1 — exercises the same code
// paths the production data would:
//
//   - per-fiber degradation probabilities follow Weibull(0.8, 0.002) per
//     epoch, spanning orders of magnitude (Fig 12b);
//   - fiber cuts scale linearly with degradations (Fig 12a);
//   - about 40% of degradations lead to cuts, and about 25% of cuts are
//     preceded by a degradation within a TE period (Fig 5b);
//   - degradation durations are ephemeral, with half under ~10 s (Fig 4a);
//   - the conditional failure probability depends on the onset hour, the
//     degradation degree, its gradient, and its fluctuation (Fig 6), with a
//     strong per-fiber fragility component (Appendix A.6: fiber ID is the
//     most informative feature).
package trace

import (
	"fmt"
	"math"
	"sort"

	"prete/internal/optical"
	"prete/internal/stats"
	"prete/internal/topology"
)

// The paper's measured failure model. Every package that needs one of
// these numbers refers to it here.
const (
	// PredictableFrac is alpha, the fraction of all cuts preceded by a
	// degradation within a TE period (§3.1: about 25%).
	PredictableFrac = 0.25
	// PCutGivenDeg is the mean conditional failure probability after a
	// degradation (§3.2: "only 40% of fiber degradation will lead to fiber
	// cuts").
	PCutGivenDeg = 0.40
	// DegShape and DegScale parameterize the Weibull per-epoch degradation
	// probability distribution across fibers (§6.1).
	DegShape, DegScale = 0.8, 0.002
	// EpochS is the trace's epoch length in seconds: 900 (15 min) per
	// §2.1 / Appendix A.1.
	EpochS = 900
)

// Config parameterizes trace generation.
type Config struct {
	Seed uint64
	Days int // trace horizon; the paper collects "about one year"
	// ExtendedIndicators enables the §8 future-work telemetry: per-episode
	// polarization mode dispersion and chromatic dispersion readings that
	// carry additional failure signal, improving predictability beyond the
	// four critical features.
	ExtendedIndicators bool
}

// DefaultConfig returns the paper-calibrated configuration.
func DefaultConfig(seed uint64) Config {
	return Config{Seed: seed, Days: 365}
}

// Episode is one degradation event with its ground-truth outcome.
type Episode struct {
	Fiber      int
	OnsetUnixS int64
	DurationS  int
	Features   optical.Features
	Profile    optical.DegradationProfile
	LedToCut   bool
}

// Cut is one fiber-cut event.
type Cut struct {
	Fiber       int
	AtUnixS     int64
	Predictable bool // preceded by a degradation within a TE period
	RepairS     int
}

// Trace is a generated event history bound to a topology.
type Trace struct {
	Cfg      Config
	Net      *topology.Network
	Episodes []Episode
	Cuts     []Cut
	// DegProb and CutProb are the per-fiber per-epoch probabilities p_d
	// and p_i the generator drew (ground truth for §6.1's scenario
	// construction).
	DegProb []float64
	CutProb []float64
	// Fragility is the latent per-fiber failure propensity (what the NN's
	// fiber-ID embedding must learn).
	Fragility []float64
}

// failure-model coefficients (§3.2 shapes).
const (
	hourAmp     = 1.2  // midnight-peaked, 6am-trough cosine
	degreeCoef  = 0.55 // per dB over the 6.5 dB midpoint
	gradCoef    = 3.2  // reward for steep gradients
	fluctCoef   = 2.6  // reward for frequent fluctuations
	fragSigma   = 1.8  // fiber fragility spread (fiber ID dominates, A.6)
	pmdCoef     = 1.4  // extended-indicator weight (only when collected)
	cdCoef      = 1.0  // extended-indicator weight (only when collected)
	maxDegProb  = 0.05 // cap on the Weibull draw to keep epochs meaningful
	maxCutDelay = 290  // predictable cuts land within a 5-minute TE period
)

// trueFailureProbability is the generative ground truth: a logistic model
// over the §3.2 critical features plus the fiber's latent fragility.
func trueFailureProbability(f optical.Features, fragility, bias float64) float64 {
	hour := float64(f.HourOfDay)
	z := bias +
		fragility +
		hourAmp*math.Cos(2*math.Pi*hour/12) + // peaks at 0h and 12h, troughs at 6h/18h
		degreeCoef*(f.DegreeDB-6.5) +
		gradCoef*math.Min(f.GradientDB, 0.8) +
		fluctCoef*math.Min(f.Fluctuation, 1.0) +
		pmdCoef*math.Min(f.PMDps/10, 1.5) +
		cdCoef*math.Min(f.CDpsNm/20, 1.5)
	return 1 / (1 + math.Exp(-z))
}

// Generate produces a Trace over the given topology's fibers.
func Generate(cfg Config, net *topology.Network) (*Trace, error) {
	if cfg.Days <= 0 {
		return nil, fmt.Errorf("trace: non-positive horizon (days=%d)", cfg.Days)
	}
	rng := stats.NewRNG(cfg.Seed)
	nf := len(net.Fibers)
	tr := &Trace{
		Cfg:       cfg,
		Net:       net,
		DegProb:   make([]float64, nf),
		CutProb:   make([]float64, nf),
		Fragility: make([]float64, nf),
	}
	// cuts scale linearly with degradations: p_i = slope * p_d where the
	// slope follows from pCut|deg and alpha (predictable = pCut*deg,
	// total cuts = predictable/alpha).
	slope := PCutGivenDeg / PredictableFrac
	degWeibull := stats.Weibull{Shape: DegShape, Scale: DegScale}
	for i := range tr.DegProb {
		p := degWeibull.Sample(rng)
		if p > maxDegProb {
			p = maxDegProb
		}
		tr.DegProb[i] = p
		tr.CutProb[i] = slope * p
		tr.Fragility[i] = rng.NormFloat64() * fragSigma
	}
	// Calibrate the logistic bias so the mean conditional failure
	// probability over a feature sample matches PCutGivenDeg.
	bias := calibrateBias(cfg, rng.Split(), tr.Fragility, net)

	epochs := cfg.Days * 24 * 3600 / EpochS
	durDist := stats.LogNormal{Mu: math.Log(10), Sigma: 1.1}   // Fig 4a: median ~10 s
	delayDist := stats.LogNormal{Mu: math.Log(60), Sigma: 0.9} // within the TE period
	repairDist := stats.LogNormal{Mu: math.Log(4 * 3600), Sigma: 0.8}

	for fi := 0; fi < nf; fi++ {
		frng := rng.Split()
		pd := tr.DegProb[fi]
		// Unpredictable (abrupt) cut probability per epoch.
		pAbrupt := tr.CutProb[fi] * (1 - PredictableFrac)
		for e := 0; e < epochs; e++ {
			epochStart := int64(e * EpochS)
			if frng.Bernoulli(pd) {
				ep := sampleEpisode(cfg, frng, net, fi, epochStart, durDist, delayDist, repairDist, tr.Fragility[fi], bias, tr)
				tr.Episodes = append(tr.Episodes, ep)
			}
			if frng.Bernoulli(pAbrupt) {
				tr.Cuts = append(tr.Cuts, Cut{
					Fiber:   fi,
					AtUnixS: epochStart + int64(frng.Intn(EpochS)),
					RepairS: int(repairDist.Sample(frng)),
				})
			}
		}
	}
	sort.Slice(tr.Cuts, func(i, j int) bool { return tr.Cuts[i].AtUnixS < tr.Cuts[j].AtUnixS })
	sort.Slice(tr.Episodes, func(i, j int) bool { return tr.Episodes[i].OnsetUnixS < tr.Episodes[j].OnsetUnixS })
	return tr, nil
}

// sampleEpisode draws one degradation episode and resolves its outcome.
func sampleEpisode(cfg Config, rng *stats.RNG, net *topology.Network, fi int,
	epochStart int64, durDist, delayDist, repairDist stats.LogNormal,
	fragility, bias float64, tr *Trace) Episode {

	fiber := net.Fibers[fi]
	onset := epochStart + int64(rng.Intn(EpochS))
	duration := int(durDist.Sample(rng))
	if duration < 2 {
		duration = 2
	}
	if duration > 3600 {
		duration = 3600
	}
	degree := 3 + 7*math.Pow(rng.Float64(), 1.3) // skewed toward mild degradations
	if degree >= optical.CutThresholdDB {
		degree = optical.CutThresholdDB - 0.1
	}
	gradient := math.Abs(rng.NormFloat64())*0.3 + 0.01
	fluctAmp := 0.0
	fluctPeriod := 0.0
	fluct := 0.0
	if rng.Bernoulli(0.6) {
		fluctAmp = 0.2 + rng.Float64()*0.8
		fluctPeriod = 3 + rng.Float64()*12
		fluct = math.Min(1, 2/fluctPeriod*2) // rough expected crossing rate
	}
	hour := int((onset / 3600) % 24)
	feats := optical.Features{
		HourOfDay:   hour,
		DegreeDB:    degree,
		GradientDB:  gradient,
		Fluctuation: fluct,
		FiberID:     fi,
		Region:      fiber.Region,
		Vendor:      fiber.Vendor,
		LengthKm:    fiber.LengthKm,
	}
	if cfg.ExtendedIndicators {
		// Mechanical stress that precedes a cut shows up as elevated PMD
		// and CD excursions (Feuerstein [11]); model them as heavy-tailed
		// positives so the extended model has real signal to harvest.
		feats.PMDps = math.Abs(rng.NormFloat64()) * 6
		feats.CDpsNm = math.Abs(rng.NormFloat64()) * 12
	}
	p := trueFailureProbability(feats, fragility, bias)
	led := rng.Bernoulli(p)
	ep := Episode{
		Fiber:      fi,
		OnsetUnixS: onset,
		DurationS:  duration,
		Features:   feats,
		LedToCut:   led,
	}
	ep.Profile = optical.DegradationProfile{
		DegreeDB:     degree,
		GradientDB:   gradient,
		FluctAmpDB:   fluctAmp,
		FluctPeriodS: fluctPeriod,
		DurationS:    duration,
		OnsetUnixS:   onset,
	}
	if led {
		delay := int(delayDist.Sample(rng))
		if delay < 2 {
			delay = 2
		}
		if delay > maxCutDelay {
			delay = maxCutDelay
		}
		ep.Profile.LeadsToCut = true
		ep.Profile.CutDelayS = delay
		ep.Profile.RepairS = int(repairDist.Sample(rng))
		tr.Cuts = append(tr.Cuts, Cut{
			Fiber:       fi,
			AtUnixS:     onset + int64(delay),
			Predictable: true,
			RepairS:     ep.Profile.RepairS,
		})
	}
	return ep
}

// calibrateBias finds the logistic intercept that makes the expected
// conditional failure probability equal PCutGivenDeg, by bisection over
// a feature sample.
func calibrateBias(cfg Config, rng *stats.RNG, fragility []float64, net *topology.Network) float64 {
	const samples = 4000
	type probe struct {
		f    optical.Features
		frag float64
	}
	probes := make([]probe, samples)
	for i := range probes {
		fi := rng.Intn(len(fragility))
		degree := 3 + 7*math.Pow(rng.Float64(), 1.3)
		fluct := 0.0
		if rng.Bernoulli(0.6) {
			period := 3 + rng.Float64()*12
			fluct = math.Min(1, 4/period)
		}
		f := optical.Features{
			HourOfDay:   rng.Intn(24),
			DegreeDB:    degree,
			GradientDB:  math.Abs(rng.NormFloat64())*0.3 + 0.01,
			Fluctuation: fluct,
			FiberID:     fi,
		}
		if cfg.ExtendedIndicators {
			f.PMDps = math.Abs(rng.NormFloat64()) * 6
			f.CDpsNm = math.Abs(rng.NormFloat64()) * 12
		}
		probes[i] = probe{f: f, frag: fragility[fi]}
	}
	mean := func(bias float64) float64 {
		var s float64
		for _, p := range probes {
			s += trueFailureProbability(p.f, p.frag, bias)
		}
		return s / samples
	}
	lo, hi := -10.0, 10.0
	for iter := 0; iter < 60; iter++ {
		mid := (lo + hi) / 2
		if mean(mid) < PCutGivenDeg {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}
