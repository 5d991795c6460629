package experiments

import (
	"fmt"
	"io"

	"prete/internal/core"
	"prete/internal/ingest"
	"prete/internal/optical"
	"prete/internal/sim"
	"prete/internal/stats"
	"prete/internal/telemetry"
	"prete/internal/topology"
)

func init() {
	register("fig8", "End-to-end pipeline on B4: telemetry batch, calibrated epoch plan, availability", fig8)
}

// fig8 exercises the whole Fig 8 loop once on B4: synthesize one telemetry
// collection interval per fiber (one fiber carries a degradation episode),
// replay it through the ingest pipeline at one sample per fiber per tick,
// turn the detected degradations into prediction signals, run the
// Benders-based epoch optimization with those signals, and close with a
// PreTE availability evaluation. It is also the experiment
// `prete-sim -metrics` points at to light up every layer's observability
// series in one run.
func fig8(w io.Writer, opts Options) error {
	cfg := evalConfig(opts)
	env, err := sim.BuildEnv("B4", opts.Seed, cfg)
	if err != nil {
		return err
	}
	// Stage 1: one collection interval of per-fiber telemetry. Fiber 0
	// carries a degradation episode that has not (yet) cut; the rest stay
	// healthy. (One degraded fiber keeps the enumeration's MaxFailures=2
	// bound sufficient for the beta constraint: with k fibers at high
	// predicted probability, covering beta mass needs k+1-failure
	// scenarios.) The per-fiber RNGs derive from the experiment seed, so
	// the series — and everything downstream — are reproducible.
	const leadInS, episodeS, healthyS = 10, 45, 55
	series := make([]telemetry.FiberSeries, len(env.Net.Fibers))
	for i, f := range env.Net.Fibers {
		fsim := optical.NewFiberSim(f.LengthKm, stats.SubRNG(opts.Seed, uint64(i)))
		if i < 1 {
			samples, err := fsim.EpisodeSeries(optical.DegradationProfile{
				DegreeDB:     6,
				FluctAmpDB:   1,
				FluctPeriodS: 12,
				DurationS:    episodeS,
				OnsetUnixS:   1700000000,
			}, leadInS)
			if err != nil {
				return err
			}
			series[i] = telemetry.FiberSeries{Fiber: i, Samples: samples}
			continue
		}
		series[i] = telemetry.FiberSeries{Fiber: i, Samples: fsim.HealthySeries(1700000000, healthyS)}
	}
	pipe, err := ingest.New(env.Net, ingest.Config{Metrics: opts.Metrics})
	if err != nil {
		return err
	}
	batch, err := pipe.RunReplay(series)
	if err != nil {
		return err
	}
	// Stage 2: degradation events become prediction signals (the NN's
	// Table 5 operating point stands in for a trained model here).
	var signals []core.DegradationSignal
	nEvents := 0
	for fi, events := range batch {
		for _, ev := range events {
			nEvents++
			if ev.Type == telemetry.DegradationStart {
				signals = append(signals, core.DegradationSignal{
					Fiber: topology.FiberID(series[fi].Fiber), PNN: 0.81,
				})
			}
		}
	}
	fmt.Fprintf(w, "telemetry: %d fibers, %d events, %d degradation signals\n",
		len(series), nEvents, len(signals))
	// Stage 3: the signal-calibrated epoch optimization (Eqn. 1 +
	// Algorithm 1 + Algorithm 2).
	// The optimizer keeps its default scenario bounds rather than the
	// evaluation-trimmed ones: the signal pushes one fiber to high failure
	// probability, which concentrates mass on scenarios the trimmed
	// enumeration would cut off.
	p := core.New()
	budgeted(p.Opt, opts)
	ep, err := p.PlanEpoch(core.EpochInput{
		Net: env.Net, Tunnels: env.Tunnels, Demands: env.BaseDemands,
		Beta: sim.Beta, PI: env.PI, Signals: signals,
	})
	if err != nil {
		return err
	}
	newTunnels := 0
	if ep.Update != nil {
		newTunnels = ep.Update.NewTunnels
	}
	fmt.Fprintf(w, "epoch plan: %d Benders iterations, %d new tunnels, max loss %.4f\n",
		ep.Result.Iterations, newTunnels, ep.Plan.MaxLoss)
	// Stage 4: availability of the scheme that just planned.
	a, err := sim.NewEvaluator(env, cfg).Evaluate("PreTE", 1)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "PreTE availability at scale 1: min %.6f, mean %.6f\n", a.Min, a.Mean)
	return nil
}
