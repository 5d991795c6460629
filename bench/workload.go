package main

import (
	"fmt"
	"math"

	"prete/internal/ingest"
	"prete/internal/optical"
	"prete/internal/sim"
	"prete/internal/stats"
	"prete/internal/te"
	"prete/internal/topology"
	"prete/internal/trace"
)

// kind selects which end-to-end path a workload drives.
type kind int

const (
	kindOnline  kind = iota // one op = one closed-loop controller epoch
	kindOffline             // one op = one availability table
	kindRestart             // one op = one controller warm restart
)

// mode is how an online workload's epochs differ from each other — the
// property that decides which rung of the solve-cache ladder every epoch
// lands on.
type mode int

const (
	modeStorm mode = iota // a fresh degradation on the next fiber: structural miss
	modeQuiet             // nothing changes: cache hit
	modeDrift             // standing degradation, p_i drift: prob-only revalidation
)

// spec is one workload's fixed parameters. Everything else a run consumes
// is derived from (spec, seed) by generate.
type spec struct {
	name string
	kind kind
	mode mode
	topo string
	// classed switches the solve to te.DefaultClassSpec plus admission.
	classed bool
	// demandScale multiplies the sim.BuildEnv base demands.
	demandScale float64
	// maxScenarios and cutoff bound failure-scenario enumeration.
	maxScenarios int
	cutoff       float64
	// ticks is the epoch's telemetry window: ticks x fibers samples per epoch.
	ticks int
	// tail is the percentile op_tail_ms reports.
	tail float64
	// maxDeg and schemes size the offline table.
	maxDeg  int
	schemes []string
	// journaled is the epoch count behind a restart workload's state dir.
	journaled int
}

// specs lists the workloads; BENCHMARK.json carries each one's why.
var specs = []spec{
	{name: "storm-b4", kind: kindOnline, mode: modeStorm, topo: "B4",
		demandScale: 0.5, maxScenarios: 200, cutoff: 1e-9, ticks: 60, tail: 0.90},
	{name: "quiet-b4", kind: kindOnline, mode: modeQuiet, topo: "B4",
		demandScale: 1, maxScenarios: 200, cutoff: 1e-9, ticks: 300, tail: 0.95},
	{name: "drift-classed-b4", kind: kindOnline, mode: modeDrift, topo: "B4", classed: true,
		demandScale: 0.5, maxScenarios: 200, cutoff: 0, ticks: 60, tail: 0.80},
	{name: "eval-b4", kind: kindOffline, topo: "B4",
		demandScale: 1.0, maxScenarios: 30, cutoff: 1e-9, maxDeg: 1, tail: 0.80,
		schemes: []string{"PreTE", "TeaVar", "Flexile", "FFC-1", "ECMP"}},
	{name: "restart-b4", kind: kindRestart, mode: modeQuiet, topo: "B4",
		demandScale: 1, maxScenarios: 200, cutoff: 1e-9, ticks: 60, tail: 0.95, journaled: 40},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// RNG streams: one stats.SubRNG index per input family, so adding a family
// never shifts another's draws.
const (
	streamDemand = iota + 1
	streamProb
	streamDrift
	streamOrder
	streamFiber // + fiber*windowVariants + variant
)

const (
	// healthyVariants is the pool of distinct all-healthy windows an online
	// run cycles through; standingVariants likewise for the drift workload's
	// standing-degradation windows.
	healthyVariants  = 4
	standingVariants = 4
	// windowVariants counts the noise draws per fiber: the healthy pool, one
	// onset window, the standing pool.
	windowVariants = healthyVariants + 1 + standingVariants
	// driftLen is the length of the generated p_i drift sequence; a run that
	// outlives it wraps around (the wrap is one more prob-only step).
	driftLen = 1024
	// driftStep is the per-epoch relative p_i step (ISSUE: +-0.3%).
	driftStep = 0.003
	// trainExamples fixes the predictor's training-set size so set-up time
	// does not depend on how many episodes a seed's trace happens to hold.
	trainExamples = 600
	// profileSeed draws each topology's per-fiber risk profile (the §6.1
	// Weibull p_i). The profile is part of the workload, not of the seed:
	// which fibers are risky decides which solves are hard, and a benchmark
	// whose difficulty moved with the seed could not hold a bound. The seed
	// jitters every p_i by +-probJitter around it.
	profileSeed  = 2025
	probJitter   = 0.02
	demandJitter = 0.05
	// nnEpochs is the predictor's training length: enough passes for a
	// usable model, short enough that set-up stays around a second.
	nnEpochs = 10
	// telemetryEpoch is the wall-clock origin of generated sample stamps.
	telemetryEpoch = 1_700_000_000
)

// window is one epoch's telemetry: window[tick] holds one arrival per fiber.
type window [][]ingest.Arrival

// inputs is everything a run feeds the program, all derived from the seed
// before any clock starts.
type inputs struct {
	spec spec
	// pi and demands are the static per-fiber failure probabilities (the
	// §6.1 Weibull draw) and the scaled demand matrix.
	pi      []float64
	demands te.Demands
	// examples is the predictor's training set, nnEpochs its training length.
	examples []trace.LabeledExample
	nnEpochs int
	// healthy are all-fibers-healthy windows; onset[f] has fiber f step into
	// degradation mid-window (the drift workload has one, for its standing
	// fiber); standing has that fiber degraded throughout.
	healthy  []window
	onset    []window
	standing []window
	// order is the storm workload's fiber sweep order.
	order []int
	// drift[e][f] is the multiplicative p_i factor of drift epoch e.
	drift [][]float64
	// simCfg is the evaluation config the profile environment is built with.
	simCfg sim.Config
}

// generate derives a workload's inputs from the seed alone. smoke shrinks
// the predictor's training and the restart history to token sizes.
func generate(sp spec, seed uint64, smoke bool) (*inputs, error) {
	in := &inputs{spec: sp, nnEpochs: nnEpochs}
	examples := trainExamples
	if smoke {
		in.nnEpochs, examples, in.spec.journaled = 1, 50, min(sp.journaled, 3)
	}
	in.simCfg = sim.DefaultConfig()
	in.simCfg.ScenarioOpts.MaxScenarios = sp.maxScenarios
	in.simCfg.ScenarioOpts.Cutoff = sp.cutoff
	if sp.maxDeg > 0 {
		in.simCfg.MaxDegScenarios = sp.maxDeg
	}
	env, err := sim.BuildEnv(sp.topo, profileSeed, in.simCfg)
	if err != nil {
		return nil, err
	}
	prng := stats.SubRNG(seed, streamProb)
	in.pi = make([]float64, len(env.PI))
	for i, p := range env.PI {
		in.pi[i] = p * (1 + probJitter*(2*prng.Float64()-1))
	}
	// Per-flow demand jitter keeps seeds from sharing one LP while leaving
	// the total load — and so the solve's difficulty class — in place.
	rng := stats.SubRNG(seed, streamDemand)
	in.demands = make(te.Demands, len(env.BaseDemands))
	for i, d := range env.BaseDemands {
		in.demands[i] = d * sp.demandScale * (1 + demandJitter*(2*rng.Float64()-1))
	}
	if sp.kind == kindOffline {
		// The offline table takes nothing from the seed. Its solves are too
		// sensitive to their inputs for a seed to perturb them and the table
		// time to stay comparable: a +-0.2% change of the demand matrix moves
		// one PreTE evaluation between 0.3 s and 2.5 s. The table is the
		// profile's environment at the workload's demand scale, as
		// Evaluator.Evaluate builds it.
		return in, nil
	}

	tr, err := trace.Generate(trace.DefaultConfig(profileSeed), env.Net)
	if err != nil {
		return nil, err
	}
	all := tr.Dataset()
	if len(all) == 0 {
		return nil, fmt.Errorf("%s: the profile trace holds no degradation episode to train on", sp.topo)
	}
	in.examples = make([]trace.LabeledExample, examples)
	for i := range in.examples {
		in.examples[i] = all[i%len(all)]
	}

	nf := len(env.Net.Fibers)
	for v := 0; v < healthyVariants; v++ {
		w, err := makeWindow(env.Net, seed, sp.ticks, -1, 0, v)
		if err != nil {
			return nil, err
		}
		in.healthy = append(in.healthy, w)
	}
	switch sp.mode {
	case modeStorm:
		for f := 0; f < nf; f++ {
			w, err := makeWindow(env.Net, seed, sp.ticks, f, sp.ticks/2, healthyVariants)
			if err != nil {
				return nil, err
			}
			in.onset = append(in.onset, w)
		}
		in.order = stats.SubRNG(seed, streamOrder).Perm(nf)
	case modeDrift:
		standing := stats.SubRNG(profileSeed, streamOrder).Intn(nf)
		w, err := makeWindow(env.Net, seed, sp.ticks, standing, sp.ticks/2, healthyVariants)
		if err != nil {
			return nil, err
		}
		in.onset = []window{w}
		for v := 0; v < standingVariants; v++ {
			w, err := makeWindow(env.Net, seed, sp.ticks, standing, 0, healthyVariants+1+v)
			if err != nil {
				return nil, err
			}
			in.standing = append(in.standing, w)
		}
		in.drift = makeDrift(seed, nf)
	}
	return in, nil
}

// makeWindow synthesizes one epoch of per-second telemetry for every fiber.
// Fiber degraded (or none, when negative) steps into a degradation episode
// at tick onsetTick and stays degraded to the end of the window; every other
// fiber is healthy throughout. variant (below windowVariants) selects an
// independent noise draw.
func makeWindow(net *topology.Network, seed uint64, ticks, degraded, onsetTick, variant int) (window, error) {
	w := make(window, ticks)
	for t := range w {
		w[t] = make([]ingest.Arrival, 0, len(net.Fibers))
	}
	for f := range net.Fibers {
		rng := stats.SubRNG(seed, uint64(streamFiber+f*windowVariants+variant))
		fsim := optical.NewFiberSim(net.Fibers[f].LengthKm, rng)
		t0 := int64(telemetryEpoch + variant*ticks)
		var samples []optical.Sample
		if f == degraded {
			var err error
			// The episode's depth belongs to the fiber (the profile); its
			// noise, drift and lost samples to the seed.
			degree := 4 + 3*stats.SubRNG(profileSeed, uint64(f)).Float64()
			samples, err = fsim.EpisodeSeries(optical.DegradationProfile{
				DegreeDB: degree, GradientDB: 0.05,
				FluctAmpDB: 0.3, FluctPeriodS: 20,
				DurationS:  ticks, // outlasts the window: the episode never ends in-window
				OnsetUnixS: t0 + int64(onsetTick), MissingSample: 0.02,
			}, onsetTick)
			if err != nil {
				return nil, err
			}
		} else {
			samples = fsim.HealthySeries(t0, ticks)
		}
		for t := 0; t < ticks; t++ {
			w[t] = append(w[t], ingest.Arrival{Fiber: f, Sample: samples[t]})
		}
	}
	return w, nil
}

// makeDrift generates the drift workload's p_i factor sequence: a per-fiber
// random walk of +-driftStep relative steps, clamped to [0.9, 1.1] so the
// enumeration's structure never moves.
func makeDrift(seed uint64, fibers int) [][]float64 {
	rng := stats.SubRNG(seed, streamDrift)
	out := make([][]float64, driftLen)
	cur := make([]float64, fibers)
	for f := range cur {
		cur[f] = 1
	}
	for e := range out {
		row := make([]float64, fibers)
		for f := range cur {
			next := cur[f] * (1 + driftStep*(2*rng.Float64()-1))
			cur[f] = math.Min(1.1, math.Max(0.9, next))
			row[f] = cur[f]
		}
		out[e] = row
	}
	return out
}
