package prete

import (
	"fmt"
	"sync"

	"prete/internal/core"
	"prete/internal/ingest"
	"prete/internal/obs"
	"prete/internal/routing"
	"prete/internal/telemetry"
)

// Config tunes a System.
type Config struct {
	// Beta is the target availability level (constraint 5).
	Beta float64
	// Alpha is the fraction of predictable fiber cuts (Theorem 4.1).
	Alpha float64
	// TunnelRatio is the number of reactive tunnels established per
	// affected tunnel on a degradation signal (Algorithm 1; §6.4).
	TunnelRatio float64
	// TunnelsPerFlow sizes the pre-established tunnel table.
	TunnelsPerFlow int
	// ConfirmSamples is the detector's per-transition confirmation count.
	ConfirmSamples int
	// Scenario bounds failure-scenario enumeration.
	Scenario ScenarioOptions
	// StaticPI is the per-fiber static failure probability p_i; when nil a
	// uniform 1e-3 is assumed.
	StaticPI []float64
	// Flows overrides the planned flow set; when nil, one flow per
	// directed IP adjacency is used (the Table 3 convention).
	Flows []Flow
	// Parallelism bounds the worker count of the optimizer's class
	// construction: <= 0 selects runtime.GOMAXPROCS(0), 1 forces the serial
	// path. Plans are bit-identical at every setting (see internal/par).
	Parallelism int
	// Metrics, when non-nil, receives the system's observability series:
	// ingest.* and telemetry.* from the pipeline behind Observe,
	// core.epoch.* stage timings, and core.benders.* / core.lp.* from the
	// optimizer. Metrics are write-only — plans and events are bit-identical
	// with Metrics set or nil.
	Metrics *obs.Registry
}

// DefaultConfig returns the paper's defaults (beta 99%, alpha 25%,
// ratio 1, 4 tunnels per flow).
func DefaultConfig() Config {
	return Config{
		Beta:           0.99,
		Alpha:          0.25,
		TunnelRatio:    1,
		TunnelsPerFlow: 4,
		ConfirmSamples: 2,
		Scenario:       core.New().ScenarioOpts,
	}
}

// System is the full PreTE pipeline of Fig 8: the telemetry front-end
// (internal/ingest: interpolation and a detector per fiber), the failure
// predictor, Algorithm 1's tunnel updater, and the Benders-based
// optimizer. It is safe for concurrent telemetry ingestion (one goroutine
// per fiber collector is the expected deployment shape).
type System struct {
	net     *Network
	cfg     Config
	tunnels *TunnelSet
	engine  *core.PreTE

	mu        sync.Mutex
	pipe      *ingest.Pipeline
	predictor Predictor
	signals   map[FiberID]DegradationSignal
	conduits  map[FiberID][]FiberID
}

// NewSystem builds a System over the network with flows on every directed
// IP adjacency.
func NewSystem(net *Network, cfg Config) (*System, error) {
	if net == nil {
		return nil, fmt.Errorf("prete: nil network")
	}
	if cfg.TunnelsPerFlow < 1 {
		cfg.TunnelsPerFlow = 4
	}
	if cfg.Beta <= 0 || cfg.Beta >= 1 {
		return nil, fmt.Errorf("prete: beta %v out of (0,1)", cfg.Beta)
	}
	flows := cfg.Flows
	if flows == nil {
		flows = routing.Flows(net)
	}
	tunnels, err := routing.BuildTunnels(net, flows, cfg.TunnelsPerFlow)
	if err != nil {
		return nil, err
	}
	if cfg.StaticPI == nil {
		cfg.StaticPI = make([]float64, len(net.Fibers))
		for i := range cfg.StaticPI {
			cfg.StaticPI[i] = 1e-3
		}
	}
	if len(cfg.StaticPI) != len(net.Fibers) {
		return nil, fmt.Errorf("prete: %d static probabilities for %d fibers", len(cfg.StaticPI), len(net.Fibers))
	}
	engine := core.New()
	engine.Alpha = cfg.Alpha
	engine.TunnelRatio = cfg.TunnelRatio
	engine.ScenarioOpts = cfg.Scenario
	engine.Opt.Parallelism = cfg.Parallelism
	engine.Opt.Metrics = cfg.Metrics
	icfg := ingest.DefaultConfig()
	icfg.ConfirmSamples = cfg.ConfirmSamples
	icfg.Metrics = cfg.Metrics
	pipe, err := ingest.New(net, icfg)
	if err != nil {
		return nil, err
	}
	return &System{
		net: net, cfg: cfg, tunnels: tunnels, engine: engine,
		pipe:     pipe,
		signals:  make(map[FiberID]DegradationSignal),
		conduits: telemetry.ConduitGroups(net),
	}, nil
}

// SetPredictor installs the failure predictor (a trained NN or any other
// Predictor). Without one, degradations assume the measured mean
// conditional failure probability of 0.40 (§3.2).
func (s *System) SetPredictor(p Predictor) {
	s.mu.Lock()
	s.predictor = p
	s.mu.Unlock()
}

// Tunnels exposes the pre-established tunnel table.
func (s *System) Tunnels() *TunnelSet { return s.tunnels }

// Flows returns the flow set the system plans for.
func (s *System) Flows() []Flow { return s.tunnels.Flows }

// Observe ingests one telemetry sample for a fiber as one tick of the
// system's ingest pipeline — interpolation, the detector, and feature
// extraction — and, on a confirmed degradation, runs the predictor. It
// returns the events the tick flushed. A Missing sample is held until the
// fiber's next present sample, whose call returns the gap's interpolated
// events along with its own.
func (s *System) Observe(fiber FiberID, sample Sample) ([]telemetry.Event, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	batches, err := s.pipe.Tick([]ingest.Arrival{{Fiber: int(fiber), Sample: sample}})
	if err != nil {
		return nil, err
	}
	var events []telemetry.Event
	for _, b := range batches {
		for _, ev := range b.Events {
			s.applyEvent(fiber, ev)
			events = append(events, ev.Event)
		}
	}
	return events, nil
}

// applyEvent folds one detector event into the degradation-signal state;
// the caller holds s.mu. A DegradationStart asks the predictor (when one is
// installed and the event carries features) and a DegradationEnd or Repaired
// clears the signal. §3.1: fibers sharing a conduit degrade (and will
// likely cut) together, so either way the whole conduit group moves.
func (s *System) applyEvent(fiber FiberID, ev telemetry.FiberEvent) {
	switch ev.Type {
	case telemetry.DegradationStart:
		pNN := 0.40 // the measured P(cut | degradation) fallback
		if s.predictor != nil && ev.HasFeatures {
			pNN = s.predictor.PredictProb(ev.Features)
		}
		for _, member := range s.conduits[fiber] {
			s.signals[member] = DegradationSignal{Fiber: member, PNN: pNN}
		}
	case telemetry.DegradationEnd, telemetry.Repaired:
		for _, member := range s.conduits[fiber] {
			delete(s.signals, member)
		}
	}
}

// ActiveSignals returns the degradation signals currently in force.
func (s *System) ActiveSignals() []DegradationSignal {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]DegradationSignal, 0, len(s.signals))
	for _, sig := range s.signals {
		out = append(out, sig)
	}
	return out
}

// ClearSignals resets degradation state (e.g. after the TE period passes
// without a failure and tunnels are restored, §4.2).
func (s *System) ClearSignals() {
	s.mu.Lock()
	s.signals = make(map[FiberID]DegradationSignal)
	s.mu.Unlock()
}

// PlanEpoch runs the full pipeline for one TE period with the currently
// active degradation signals.
func (s *System) PlanEpoch(demands Demands) (*EpochPlan, error) {
	return s.engine.PlanEpoch(core.EpochInput{
		Net:     s.net,
		Tunnels: s.tunnels,
		Demands: demands,
		Beta:    s.cfg.Beta,
		PI:      s.cfg.StaticPI,
		Signals: s.ActiveSignals(),
	})
}

// FailedLinks maps a cut set to the IP links it downs (convenience
// re-export for callers reacting to failures).
func (s *System) FailedLinks(cut map[FiberID]bool) map[LinkID]bool {
	return s.net.FailedLinks(cut)
}
