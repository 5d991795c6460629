// Package sim is the large-scale evaluation harness of §6: it builds
// evaluation environments on the B4/IBM/TWAN topologies, generates diurnal
// traffic matrices, and measures per-flow availability for every TE scheme
// under the two-level uncertainty model the paper uses — degradation
// scenarios (which fibers degrade this epoch) and, conditioned on them,
// failure scenarios (which fibers cut).
//
// Availability of a flow is the probability-weighted fraction of epoch time
// its full (scaled) demand is delivered; schemes differ in what they
// pre-plan and how fast they react (Table 9): proactive rate adaptation is
// effectively instant, ARROW pays its restoration window, Flexile pays its
// recomputation window, and PreTE's pre-established tunnels make even
// predicted failures instant.
package sim

import (
	"math"

	"prete/internal/obs"
	"prete/internal/routing"
	"prete/internal/scenario"
	"prete/internal/stats"
	"prete/internal/te"
	"prete/internal/topology"
	"prete/internal/trace"
)

// Beta is the planning availability target (99%) of every evaluation.
const Beta = 0.99

// The evaluation's timing constants, in seconds, and ARROW's restoration.
const (
	epochS              float64 = 300 // TE period (5 minutes)
	flexileConvergenceS float64 = 30  // Flexile's reactive recomputation window
	arrowRestorationS   float64 = 8   // ARROW's optical restoration latency
	// arrowRestoreFrac is the fraction of a cut link's capacity that
	// optical restoration rebuilds on surviving spectrum; restoration is
	// partial in practice, which is what bends ARROW's curve down at high
	// demand scales.
	arrowRestoreFrac = 0.6
)

// Config holds the evaluation's settings.
type Config struct {
	Alpha float64 // fraction of predictable cuts (trace.PredictableFrac)
	// ScenarioOpts bounds failure-scenario enumeration.
	ScenarioOpts scenario.Options
	// MaxDegScenarios caps how many single-fiber degradation scenarios are
	// enumerated (the most degradation-prone fibers first); the remaining
	// mass is folded into the no-degradation scenario.
	MaxDegScenarios int
	// Parallelism bounds the evaluator's fan-out across degradation
	// scenarios, which with the experiment sweeps above it is the
	// program's one parallel stage: <= 0 selects runtime.GOMAXPROCS(0), 1
	// forces the serial path. Every solve inside a scenario runs on its
	// worker's goroutine; the workers share one planner. Availability
	// results are bit-identical at every setting — per-scenario partial
	// vectors are merged in scenario order (see internal/par).
	Parallelism int
	// SolveBudget caps the deterministic work units each TE solve may
	// consume (see core.Optimizer.BudgetUnits); 0 is unlimited. Budgeted
	// solves stay bit-identical at every Parallelism setting, but may
	// return truncated or heuristic-fallback plans — exactly what a
	// deadline-bounded production controller would install.
	SolveBudget int64
	// Metrics, when non-nil, receives evaluation counters (degradation and
	// failure scenarios evaluated, plan-cache hits/misses), per-scenario eval
	// timings, and — propagated to the optimizers the evaluator constructs —
	// the core.benders.* series. Metrics are write-only: availability results
	// are bit-identical with Metrics set or nil.
	Metrics *obs.Registry
}

// DefaultConfig returns the paper-calibrated evaluation constants.
func DefaultConfig() Config {
	return Config{
		Alpha:           trace.PredictableFrac,
		ScenarioOpts:    scenario.Options{Cutoff: 1e-9, MaxFailures: 2, MaxScenarios: 600},
		MaxDegScenarios: 16,
	}
}

// Env is an evaluation environment: topology, tunnels, demand matrix, and
// ground-truth probabilities.
type Env struct {
	Net     *topology.Network
	Tunnels *routing.TunnelSet
	// BaseDemands is the scale-1 demand matrix.
	BaseDemands te.Demands
	// PD and PI are per-fiber per-epoch degradation and (unconditional)
	// failure probabilities — the §6.1 construction: PD from
	// Weibull(0.8, 0.002), PI linearly related.
	PD, PI []float64
}

// BuildEnv constructs the environment for a named topology, drawing
// probabilities per §6.1 and sizing base demands to a fraction of each
// flow's direct-link capacity so the Fig 13 demand-scale axis is
// meaningful.
func BuildEnv(name string, seed uint64, cfg Config) (*Env, error) {
	net, err := topology.ByName(name)
	if err != nil {
		return nil, err
	}
	ts, err := routing.BuildTunnels(net, routing.Flows(net), 4)
	if err != nil {
		return nil, err
	}
	rng := stats.NewRNG(seed)
	w := stats.Weibull{Shape: trace.DegShape, Scale: trace.DegScale}
	slope := trace.PCutGivenDeg / cfg.Alpha
	pd := make([]float64, len(net.Fibers))
	pi := make([]float64, len(net.Fibers))
	for i := range pd {
		p := w.Sample(rng)
		if p > 0.02 {
			p = 0.02
		}
		pd[i] = p
		pi[i] = math.Min(0.05, slope*p)
	}
	demands := make(te.Demands, len(ts.Flows))
	for i, fl := range ts.Flows {
		capacity := 1000.0
		if lid, ok := net.LinkBetween(fl.Src, fl.Dst); ok {
			capacity = net.Link(lid).Capacity
		}
		// Scale 1 loads each direct link to ~15%, leaving the Fig 13 sweep
		// room up to ~6x before even the failure-free optimum saturates.
		demands[i] = capacity * 0.15
	}
	return &Env{Net: net, Tunnels: ts, BaseDemands: demands, PD: pd, PI: pi}, nil
}

// TruthProbs returns the ground-truth per-fiber failure probabilities for a
// degradation scenario: the degraded fiber fails with trace.PCutGivenDeg, the
// rest with the Theorem 4.1 residual (1 - alpha) * PI.
func (e *Env) TruthProbs(cfg Config, degraded int) []float64 {
	out := make([]float64, len(e.PI))
	for i, p := range e.PI {
		out[i] = (1 - cfg.Alpha) * p
	}
	if degraded >= 0 {
		out[degraded] = trace.PCutGivenDeg
	}
	return out
}

// DegScenario is one degradation scenario in the evaluation's outer loop.
type DegScenario struct {
	// Fiber is the degraded fiber, or -1 for the no-degradation scenario.
	Fiber int
	Prob  float64
}

// DegScenarios enumerates the no-degradation scenario plus the
// MaxDegScenarios most degradation-prone single-fiber scenarios; the
// remaining degradation mass is folded into the quiet scenario (a
// conservative simplification applied identically to every scheme).
func (e *Env) DegScenarios(cfg Config) []DegScenario {
	type cand struct {
		fiber int
		p     float64
	}
	cands := make([]cand, len(e.PD))
	noDeg := 1.0
	for i, p := range e.PD {
		cands[i] = cand{i, p}
		noDeg *= 1 - p
	}
	// selection sort of the top-K (K is small)
	k := cfg.MaxDegScenarios
	if k > len(cands) {
		k = len(cands)
	}
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < len(cands); j++ {
			if cands[j].p > cands[best].p {
				best = j
			}
		}
		cands[i], cands[best] = cands[best], cands[i]
	}
	out := []DegScenario{{Fiber: -1}}
	var enumerated float64
	for i := 0; i < k; i++ {
		// P(only fiber i degrades) = p_i * prod_j!=i (1 - p_j)
		p := noDeg / (1 - cands[i].p) * cands[i].p
		out = append(out, DegScenario{Fiber: cands[i].fiber, Prob: p})
		enumerated += p
	}
	out[0].Prob = 1 - enumerated // quiet scenario absorbs the tail
	return out
}

// Availability summarizes an evaluation.
type Availability struct {
	PerFlow []float64
	Min     float64
	Mean    float64
}

func summarize(perFlow []float64) Availability {
	a := Availability{PerFlow: perFlow, Min: 1}
	if len(perFlow) == 0 {
		a.Min = 0
		return a
	}
	var sum float64
	for _, v := range perFlow {
		if v < a.Min {
			a.Min = v
		}
		sum += v
	}
	a.Mean = sum / float64(len(perFlow))
	return a
}

// Nines converts an availability to "number of nines" (0.999 -> 3).
func Nines(a float64) float64 {
	if a >= 1 {
		return math.Inf(1)
	}
	if a <= 0 {
		return 0
	}
	return -math.Log10(1 - a)
}
