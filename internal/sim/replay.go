package sim

import (
	"fmt"
	"sort"

	"prete/internal/core"
	"prete/internal/ml"
	"prete/internal/routing"
	"prete/internal/scenario"
	"prete/internal/te"
	"prete/internal/topology"
	"prete/internal/trace"
)

// ReplayConfig drives an epoch-by-epoch replay of a generated trace
// through the full pipeline: degradation episodes raise signals, a real
// predictor scores them, the scheme plans, and the trace's actual cuts
// determine delivered traffic.
type ReplayConfig struct {
	// Scheme is "PreTE", "PreTE-naive" or "TeaVar".
	Scheme string
	// DemandGbps is the uniform per-flow demand.
	DemandGbps float64
	// Predictor scores degradation episodes; nil uses trace.PCutGivenDeg.
	Predictor ml.Predictor
	// MaxEventEpochs caps how many event-bearing epochs are replayed (the
	// quiet majority is accounted analytically with the quiet plan).
	MaxEventEpochs int
}

// DefaultReplayConfig returns moderate settings.
func DefaultReplayConfig(scheme string) ReplayConfig {
	return ReplayConfig{Scheme: scheme, DemandGbps: 60, MaxEventEpochs: 150}
}

// ReplayResult summarizes a replay.
type ReplayResult struct {
	Scheme          string
	EventEpochs     int // epochs replayed with a degradation and/or cut
	CutEpochs       int // epochs in which a cut landed
	FlowEpochs      int // flow-epoch pairs evaluated in event epochs
	LostFlowEpochs  int // flow-epochs with unmet demand at the cut instant
	LostGbps        float64
	EstablishedTuns int
}

// LossRate returns the fraction of evaluated flow-epochs that saw loss.
func (r ReplayResult) LossRate() float64 {
	if r.FlowEpochs == 0 {
		return 0
	}
	return float64(r.LostFlowEpochs) / float64(r.FlowEpochs)
}

// Replay runs the pipeline over the trace's event timeline.
func Replay(tr *trace.Trace, cfg ReplayConfig) (*ReplayResult, error) {
	s, err := coreScheme(cfg.Scheme)
	if err != nil {
		return nil, err
	}
	if cfg.MaxEventEpochs <= 0 {
		cfg.MaxEventEpochs = 150
	}
	net := tr.Net
	tunnels, err := routing.BuildTunnels(net, routing.Flows(net), 4)
	if err != nil {
		return nil, err
	}
	demands := make(te.Demands, len(tunnels.Flows))
	for i := range demands {
		demands[i] = cfg.DemandGbps
	}
	planner := s.newCore()
	planner.ScenarioOpts = scenario.Options{Cutoff: 1e-9, MaxFailures: 2, MaxScenarios: 300}

	// Index events by epoch.
	episodesByEpoch := make(map[int64][]trace.Episode)
	for _, ep := range tr.Episodes {
		e := ep.OnsetUnixS / trace.EpochS
		episodesByEpoch[e] = append(episodesByEpoch[e], ep)
	}
	cutsByEpoch := make(map[int64][]trace.Cut)
	for _, c := range tr.Cuts {
		e := c.AtUnixS / trace.EpochS
		cutsByEpoch[e] = append(cutsByEpoch[e], c)
	}
	epochSet := make(map[int64]bool)
	for e := range episodesByEpoch {
		epochSet[e] = true
	}
	for e := range cutsByEpoch {
		epochSet[e] = true
	}
	epochs := make([]int64, 0, len(epochSet))
	for e := range epochSet {
		epochs = append(epochs, e)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	if len(epochs) > cfg.MaxEventEpochs {
		epochs = epochs[:cfg.MaxEventEpochs]
	}

	res := &ReplayResult{Scheme: cfg.Scheme}
	var cut topology.FiberSet
	for _, e := range epochs {
		res.EventEpochs++
		// Signals active this epoch (PreTE reacts; TeaVar's engine ignores
		// them by construction).
		var signals []core.DegradationSignal
		for _, ep := range episodesByEpoch[e] {
			pHat := trace.PCutGivenDeg
			if cfg.Predictor != nil {
				pHat = cfg.Predictor.PredictProb(ep.Features)
			}
			signals = append(signals, core.DegradationSignal{
				Fiber: topology.FiberID(ep.Fiber), PNN: pHat,
			})
		}
		plan, err := planner.PlanEpoch(core.EpochInput{
			Net: net, Tunnels: tunnels, Demands: demands,
			Beta: Beta, PI: tr.CutProb, Signals: signals,
		})
		if err != nil {
			return nil, fmt.Errorf("sim: replay epoch %d: %w", e, err)
		}
		if plan.Update != nil {
			res.EstablishedTuns += plan.Update.NewTunnels
		}
		// Apply the epoch's actual cuts.
		cuts := cutsByEpoch[e]
		if len(cuts) == 0 {
			continue
		}
		res.CutEpochs++
		cut = cut[:0]
		for _, c := range cuts {
			cut.Add(topology.FiberID(c.Fiber))
		}
		for _, fl := range tunnels.Flows {
			res.FlowEpochs++
			delivered := te.DeliveredUnder(plan.Plan, fl.ID, demands[fl.ID], cut)
			if delivered < demands[fl.ID]*(1-1e-6) {
				res.LostFlowEpochs++
				res.LostGbps += demands[fl.ID] - delivered
			}
		}
	}
	return res, nil
}
