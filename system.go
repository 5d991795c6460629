package prete

import (
	"fmt"
	"sync"

	"prete/internal/core"
	"prete/internal/ingest"
	"prete/internal/routing"
	"prete/internal/telemetry"
	"prete/internal/trace"
)

// Config tunes a System. Every System plans at β = 0.99 (constraint 5)
// with core.New's α, the fraction of predictable cuts (Theorem 4.1).
type Config struct {
	// TunnelRatio is the number of reactive tunnels established per
	// affected tunnel on a degradation signal (Algorithm 1; §6.4).
	TunnelRatio float64
	// TunnelsPerFlow sizes the pre-established tunnel table.
	TunnelsPerFlow int
	// Scenario bounds failure-scenario enumeration.
	Scenario ScenarioOptions
	// StaticPI is the per-fiber static failure probability p_i; when nil a
	// uniform 1e-3 is assumed.
	StaticPI []float64
	// Flows overrides the planned flow set; when nil, one flow per
	// directed IP adjacency is used (the Table 3 convention).
	Flows []Flow
}

// DefaultConfig returns the paper's defaults (ratio 1, 4 tunnels per flow).
func DefaultConfig() Config {
	return Config{
		TunnelRatio:    1,
		TunnelsPerFlow: 4,
		Scenario:       core.New().ScenarioOpts,
	}
}

// System is the full PreTE pipeline of Fig 8: the telemetry front-end
// (internal/ingest: interpolation and a detector per fiber), the failure
// predictor, and the controller loop (core.Loop: the sorted signal set,
// one signal per degraded fiber, Algorithm 1's reactive-tunnel episode,
// Eqn. 1, scenario enumeration and the Benders-based optimizer with its
// warm-start caches). It is safe for concurrent use (one goroutine per
// fiber collector is the expected deployment shape): observations are
// serialized with each other and with the stages of an epoch that read the
// signals, and epochs with each other, but an epoch's solve does not hold
// observations up.
type System struct {
	flows []Flow

	// mu guards the pipeline, the predictor and the loop's signal set;
	// epoch serializes PlanEpoch, whose solve runs under epoch alone.
	mu, epoch sync.Mutex
	pipe      *ingest.Pipeline
	predictor Predictor
	loop      *core.Loop
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
	engine.TunnelRatio = cfg.TunnelRatio
	engine.ScenarioOpts = cfg.Scenario
	pipe, err := ingest.New(net, ingest.Config{})
	if err != nil {
		return nil, err
	}
	return &System{
		flows: tunnels.Flows,
		pipe:  pipe,
		loop:  core.NewLoop(engine, core.EpochInput{Net: net, Tunnels: tunnels, Beta: 0.99, PI: cfg.StaticPI}),
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

// Flows returns the flow set the system plans for.
func (s *System) Flows() []Flow { return s.flows }

// Observe ingests one telemetry sample for a fiber as one tick of the
// system's ingest pipeline — interpolation, the detector, and feature
// extraction — and returns the events the tick flushed. A Missing sample
// is held until the fiber's next present sample, whose call returns the
// gap's interpolated events along with its own. A DegradationStart asks the
// predictor (when one is installed and the event carries features) and
// signals that fiber alone, as one EpochInput signal does; a DegradationEnd
// or Repaired clears it.
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
			switch ev.Type {
			case telemetry.DegradationStart:
				pNN := trace.PCutGivenDeg // the measured P(cut | degradation) fallback
				if s.predictor != nil && ev.HasFeatures {
					pNN = s.predictor.PredictProb(ev.Features)
				}
				s.loop.Signal(FiberID(b.Fiber), pNN)
			case telemetry.DegradationEnd, telemetry.Repaired:
				s.loop.Clear(FiberID(b.Fiber))
			}
			events = append(events, ev.Event)
		}
	}
	return events, nil
}

// ActiveSignals returns the degradation signals currently in force, in
// ascending fiber order.
func (s *System) ActiveSignals() []DegradationSignal {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loop.Signals()
}

// PlanEpoch runs one epoch of the controller loop for one TE period with
// the currently active degradation signals. Observe calls made while it
// solves count toward the next epoch.
func (s *System) PlanEpoch(demands Demands) (*EpochPlan, error) {
	s.epoch.Lock()
	defer s.epoch.Unlock()
	s.mu.Lock()
	s.loop.Demands = demands
	_, _, err := s.loop.Retunnel()
	if err == nil {
		_, err = s.loop.Regenerate()
	}
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return s.loop.Solve()
}
