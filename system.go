package prete

import (
	"fmt"
	"sync"

	"prete/internal/core"
	"prete/internal/ingest"
	"prete/internal/obs"
	"prete/internal/optical"
	"prete/internal/par"
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
	// construction and of ObserveBatch's per-fiber fan-out: <= 0 selects
	// runtime.GOMAXPROCS(0), 1 forces the serial path. Plans and events are
	// bit-identical at every setting (see internal/par).
	Parallelism int
	// Metrics, when non-nil, receives the system's observability series:
	// telemetry.* from the per-fiber detectors and batch ingestion,
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

// System is the full PreTE pipeline of Fig 8: telemetry detectors per
// fiber, the failure predictor, Algorithm 1's tunnel updater, and the
// Benders-based optimizer. It is safe for concurrent telemetry ingestion
// (one goroutine per fiber collector is the expected deployment shape).
type System struct {
	net     *Network
	cfg     Config
	tunnels *TunnelSet
	engine  *core.PreTE

	mu        sync.Mutex
	detectors map[FiberID]*telemetry.Detector
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
	return &System{
		net: net, cfg: cfg, tunnels: tunnels, engine: engine,
		detectors: make(map[FiberID]*telemetry.Detector),
		signals:   make(map[FiberID]DegradationSignal),
		conduits:  telemetry.ConduitGroups(net),
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

// Observe ingests one telemetry sample for a fiber, running the detector
// and — on a confirmed degradation — the predictor. It returns the events
// the sample triggered.
func (s *System) Observe(fiber FiberID, sample Sample) ([]telemetry.Event, error) {
	if int(fiber) < 0 || int(fiber) >= len(s.net.Fibers) {
		return nil, fmt.Errorf("prete: fiber %d out of range", fiber)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	det, ok := s.detectors[fiber]
	if !ok {
		det = telemetry.NewDetector(s.cfg.ConfirmSamples)
		det.SetMetrics(s.cfg.Metrics)
		s.detectors[fiber] = det
	}
	events := det.Observe(sample)
	for _, ev := range events {
		var feats optical.Features
		var hasFeats bool
		if ev.Type == telemetry.DegradationStart && s.predictor != nil && len(ev.Window) > 0 {
			f := s.net.Fiber(fiber)
			var err error
			feats, err = optical.ExtractFeatures(ev.Window, int(fiber), f.Region, f.Vendor, f.LengthKm)
			hasFeats = err == nil
		}
		s.applyEvent(fiber, ev.Type, feats, hasFeats)
	}
	return events, nil
}

// applyEvent folds one detector event into the degradation-signal state;
// the caller holds s.mu. A DegradationStart asks the predictor (when one is
// installed and the event carries features) and a DegradationEnd or Repaired
// clears the signal. §3.1: fibers sharing a conduit degrade (and will
// likely cut) together, so either way the whole conduit group moves.
func (s *System) applyEvent(fiber FiberID, typ telemetry.EventType, feats optical.Features, hasFeats bool) {
	switch typ {
	case telemetry.DegradationStart:
		pNN := 0.40 // the measured P(cut | degradation) fallback
		if s.predictor != nil && hasFeats {
			pNN = s.predictor.PredictProb(feats)
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

// ObserveBatch ingests whole per-fiber sample series at once — the
// collection-interval replay shape — and returns each fiber's events in
// input order. The per-fiber work (detector state machine plus feature
// extraction, both pure per fiber) fans out across Config.Parallelism
// workers; the predictor and conduit signal updates then run serially in
// input order, so the resulting signal state and returned events are
// identical to feeding every sample through Observe one at a time, at any
// parallelism setting. Each fiber may appear at most once per batch (its
// detector is owned by one task).
func (s *System) ObserveBatch(series []telemetry.FiberSeries) ([][]telemetry.Event, error) {
	seen := make(map[int]bool, len(series))
	for _, fs := range series {
		if fs.Fiber < 0 || fs.Fiber >= len(s.net.Fibers) {
			return nil, fmt.Errorf("prete: fiber %d out of range", fs.Fiber)
		}
		if seen[fs.Fiber] {
			return nil, fmt.Errorf("prete: fiber %d appears twice in batch", fs.Fiber)
		}
		seen[fs.Fiber] = true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Materialize each fiber's detector up front so the parallel phase
	// never touches the shared map.
	dets := make([]*telemetry.Detector, len(series))
	for i, fs := range series {
		det, ok := s.detectors[FiberID(fs.Fiber)]
		if !ok {
			det = telemetry.NewDetector(s.cfg.ConfirmSamples)
			det.SetMetrics(s.cfg.Metrics)
			s.detectors[FiberID(fs.Fiber)] = det
		}
		dets[i] = det
	}
	reg := s.cfg.Metrics
	reg.Counter("telemetry.batch.runs").Inc()
	reg.Counter("telemetry.batch.fibers").Add(int64(len(series)))
	batchT := reg.Timer("telemetry.batch.latency")
	batchStart := batchT.Start()
	// Parallel phase: detector state machine + feature extraction, both
	// pure per fiber. The predictor (whose forward pass need not be
	// goroutine-safe) stays out of this phase.
	type annotated struct {
		events   []telemetry.Event
		feats    []optical.Features // parallel to events
		hasFeats []bool
	}
	results := par.Map(len(series), s.cfg.Parallelism, func(i int) annotated {
		fs := series[i]
		events := dets[i].ObserveSeries(fs.Samples)
		a := annotated{
			events:   events,
			feats:    make([]optical.Features, len(events)),
			hasFeats: make([]bool, len(events)),
		}
		for ei, ev := range events {
			if ev.Type != telemetry.DegradationStart || len(ev.Window) == 0 {
				continue
			}
			f := s.net.Fiber(FiberID(fs.Fiber))
			feats, err := optical.ExtractFeatures(ev.Window, fs.Fiber, f.Region, f.Vendor, f.LengthKm)
			if err == nil {
				a.feats[ei] = feats
				a.hasFeats[ei] = true
			}
		}
		return a
	})
	batchT.Stop(batchStart)
	// Serial phase, in input order: prediction and conduit signal fan-out,
	// exactly as Observe would apply them.
	out := make([][]telemetry.Event, len(series))
	var nEvents int64
	for i, fs := range series {
		out[i] = results[i].events
		nEvents += int64(len(results[i].events))
		for ei, ev := range results[i].events {
			s.applyEvent(FiberID(fs.Fiber), ev.Type, results[i].feats[ei], results[i].hasFeats[ei])
		}
	}
	reg.Counter("telemetry.batch.events").Add(nEvents)
	return out, nil
}

// Stream is a live streaming-ingest session bound to a System: telemetry
// arrivals flow through an internal/ingest pipeline (sharded rings,
// watermark backpressure, windowed flush), and every flushed event updates
// the system's degradation-signal state exactly as Observe would — the
// predictor and conduit fan-out run serially in ascending fiber order, so
// the resulting signal state is deterministic at every shard count and
// parallelism setting. A Stream owns its fibers' detectors; do not mix it
// with Observe/ObserveBatch calls for the same fibers.
type Stream struct {
	sys  *System
	pipe *ingest.Pipeline
}

// OpenStream starts a streaming ingest session over the system's network.
// The pipeline inherits the system's confirmation count, parallelism, and
// metrics registry; the remaining knobs (shards, ring capacity, watermark,
// drain budget, flush window) come from cfg.
func (s *System) OpenStream(cfg ingest.Config) (*Stream, error) {
	cfg.ConfirmSamples = s.cfg.ConfirmSamples
	cfg.Parallelism = s.cfg.Parallelism
	cfg.Metrics = s.cfg.Metrics
	pipe, err := ingest.New(s.net, cfg)
	if err != nil {
		return nil, err
	}
	return &Stream{sys: s, pipe: pipe}, nil
}

// Tick advances the stream by one logical tick (see ingest.Pipeline.Tick)
// and applies any flushed events to the system's signal state. The flushed
// batches are returned for callers that also want the raw events.
func (st *Stream) Tick(arrivals []ingest.Arrival) ([]ingest.FiberEvents, error) {
	batches, err := st.pipe.Tick(arrivals)
	if err != nil {
		return nil, err
	}
	st.apply(batches)
	return batches, nil
}

// Flush ends the stream's current window unconditionally (see
// ingest.Pipeline.Flush) and applies the remaining events.
func (st *Stream) Flush() ([]ingest.FiberEvents, error) {
	batches, err := st.pipe.Flush()
	if err != nil {
		return nil, err
	}
	st.apply(batches)
	return batches, nil
}

// Stats snapshots the pipeline's exact drop/merge accounting.
func (st *Stream) Stats() ingest.Stats { return st.pipe.Stats() }

// apply replays flushed events onto the signal state under the system
// lock, exactly as ObserveBatch's serial phase would.
func (st *Stream) apply(batches []ingest.FiberEvents) {
	if len(batches) == 0 {
		return
	}
	s := st.sys
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, b := range batches {
		for _, ev := range b.Events {
			s.applyEvent(FiberID(b.Fiber), ev.Type, ev.Features, ev.HasFeatures)
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
