// Package ingest is the telemetry front-end, §3.1's one stage from
// per-second optical samples to detector events: every production path
// (prete.System.Observe, the testbed, fig8, the benchmark) feeds samples
// through a Pipeline, with deterministic backpressure when arrivals outrun
// compute. telemetry.ProcessBatch is the whole-series reference it is
// checked against.
//
// Dataflow, one logical tick at a time, one serial loop over fibers:
//
//	arrivals ──admit──▶ per-fiber ring ──drain──▶ per-fiber run ──flush──▶ Detector ──▶ events
//	             │  (fixed capacity,      (pipeline-wide            (interpolation +
//	             │   watermark policy)     budget, fiber order)      feature extraction)
//	             ▼
//	      drop / merge (exact accounting, never silent)
//
// Admission runs in arrival order: while a ring sits below its high
// watermark every sample is accepted; between the watermark and capacity,
// consecutive same-state samples are merged (coalesced into the newest
// buffered sample — the freshest reading wins, state transitions are never
// merged away); at capacity, the incoming sample is merged when possible
// and otherwise dropped. Every admission decision is a pure function of the
// ring's occupancy, so for a fixed arrival schedule and configuration the
// drop/merge decisions replay bit-identically — and when backpressure never
// triggers, the emitted events equal telemetry.ProcessBatch byte for byte
// (pinned by the equivalence tests, enforced under mutation by FuzzIngest).
//
// Accounting is exact by construction: after a final Flush,
//
//	ingested == emitted + dropped + merged
//
// with per-fiber drop/merge tallies in Stats and the same totals mirrored
// into the ingest.* metrics (counters, a queue-depth gauge, and a
// watermark-crossing counter) of an attached obs.Registry, so shed load is
// always auditable.
package ingest

import (
	"fmt"

	"prete/internal/obs"
	"prete/internal/optical"
	"prete/internal/telemetry"
	"prete/internal/topology"
)

// Arrival is one telemetry sample arriving at the front-end, the unit of
// the streaming schedule. Arrivals within a tick are admitted in slice
// order; the same fiber may appear any number of times per tick (that is
// what an ingest rate above one sample per tick looks like).
type Arrival struct {
	Fiber  int
	Sample optical.Sample
}

// Config tunes a Pipeline. The zero value is not usable; start from
// DefaultConfig.
type Config struct {
	// RingCapacity is each fiber's ring size in samples; an arrival finding
	// its ring full is merged or dropped, never queued unboundedly.
	// Values <= 0 select 1024.
	RingCapacity int
	// HighWatermark is the ring-occupancy fraction (0,1] at which admission
	// switches from accept-everything to merge mode. Values outside (0,1]
	// select 0.75. The watermark row in samples is at least 1.
	HighWatermark float64
	// DrainPerTick bounds how many queued samples the pipeline hands to its
	// detectors per tick, shared round-robin across fibers in ascending
	// order — the deterministic stand-in for finite compute. Values <= 0
	// disable the bound (compute keeps up with any arrival rate, so
	// backpressure never triggers).
	DrainPerTick int
	// FlushTicks is the flush window: every FlushTicks ticks each fiber's
	// drained sample run goes through interpolation, the detector state
	// machine, and feature extraction, and the resulting events are emitted.
	// Values <= 0 select 1 (flush every tick).
	FlushTicks int
	// ConfirmSamples is the per-transition confirmation count of the
	// per-fiber detectors (telemetry.Detector).
	ConfirmSamples int
	// Metrics, when non-nil, receives the ingest.* observability series and,
	// through the detectors, the telemetry.* counters. Metrics are
	// write-only: admission and drain decisions never read them.
	Metrics *obs.Registry
}

// DefaultConfig returns a production-shaped configuration: 1024-sample
// rings with a 0.75 watermark, unlimited drain (no backpressure), per-tick
// flush, and the paper's 2-sample confirmation.
func DefaultConfig() Config {
	return Config{
		RingCapacity:   1024,
		HighWatermark:  0.75,
		FlushTicks:     1,
		ConfirmSamples: 2,
	}
}

// withDefaults resolves the zero/invalid fields to their documented
// defaults without mutating the caller's copy.
func (c Config) withDefaults() Config {
	if c.RingCapacity <= 0 {
		c.RingCapacity = 1024
	}
	if c.HighWatermark <= 0 || c.HighWatermark > 1 {
		c.HighWatermark = 0.75
	}
	if c.FlushTicks <= 0 {
		c.FlushTicks = 1
	}
	if c.ConfirmSamples < 1 {
		c.ConfirmSamples = 1
	}
	return c
}

// Stats is a point-in-time snapshot of the pipeline's exact accounting.
// After a final Flush, Queued is zero and
// Ingested == Emitted + Dropped + Merged.
type Stats struct {
	// Ingested counts every arrival admitted to accounting (valid fiber id),
	// whatever its fate.
	Ingested int64
	// Emitted counts samples handed to the detector stage (drained from a
	// ring into a flush run).
	Emitted int64
	// Dropped counts samples shed whole at a full ring.
	Dropped int64
	// Merged counts samples coalesced into the newest buffered same-state
	// sample under watermark pressure.
	Merged int64
	// Queued counts samples still buffered (rings plus undelivered flush
	// runs) — in flight, not yet emitted or shed.
	Queued int64
	// WatermarkCrossings counts low→high watermark transitions across all
	// rings (the moments backpressure engaged).
	WatermarkCrossings int64
	// Ticks and Flushes count Tick calls and flush rounds (including the
	// final Flush).
	Ticks, Flushes int64
	// PerFiberDropped and PerFiberMerged break Dropped/Merged down by fiber
	// id — the per-entity shed-load lineage.
	PerFiberDropped []int64
	PerFiberMerged  []int64
}

// FiberEvents is one fiber's events emitted by a flush round, in detection
// order. Batches arrive in ascending fiber order within a flush.
type FiberEvents struct {
	Fiber  int
	Events []telemetry.FiberEvent
}

// ring is a fixed-capacity FIFO of samples. The buffer is allocated on
// first use so idle fibers cost a struct, not a window.
type ring struct {
	buf     []optical.Sample
	head, n int
}

func (r *ring) push(capacity int, s optical.Sample) {
	if r.buf == nil {
		r.buf = make([]optical.Sample, capacity)
	}
	r.buf[(r.head+r.n)%len(r.buf)] = s
	r.n++
}

func (r *ring) pop() optical.Sample {
	s := r.buf[r.head]
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return s
}

// newest returns the most recently pushed sample; callers must check n > 0.
func (r *ring) newest() *optical.Sample {
	return &r.buf[(r.head+r.n-1)%len(r.buf)]
}

// fiberState is everything the pipeline holds for one fiber: its ring, the
// drained-but-unflushed run, the persistent detector, and the streaming
// interpolation carry (anchor + trailing missing samples).
type fiberState struct {
	id  int
	fib topology.Fiber // hoisted lookup for feature extraction

	ring  ring
	run   []optical.Sample
	det   *telemetry.Detector
	above bool // ring occupancy is at/above the watermark

	// anchor is the last present (non-missing) sample already handed to the
	// detector; pending holds trailing missing samples awaiting their right
	// interpolation neighbour. Together they make chunked interpolation
	// byte-identical to telemetry.Interpolate over the full series.
	anchor    optical.Sample
	hasAnchor bool
	pending   []optical.Sample

	dropped, merged int64
}

// observe feeds one (already interpolated) sample to the fiber's detector
// and annotates any resulting events with the §3.2 degradation features,
// exactly as telemetry.ProcessBatch does.
func (fs *fiberState) observe(s optical.Sample) ([]telemetry.FiberEvent, error) {
	events := fs.det.Observe(s)
	if len(events) == 0 {
		return nil, nil
	}
	out := make([]telemetry.FiberEvent, len(events))
	for ei, ev := range events {
		fe := telemetry.FiberEvent{Event: ev}
		if len(ev.Window) > 0 {
			feats, err := optical.ExtractFeatures(ev.Window, fs.id, fs.fib.Region, fs.fib.Vendor, fs.fib.LengthKm)
			if err != nil {
				return nil, fmt.Errorf("ingest: fiber %d event %d: %w", fs.id, ei, err)
			}
			fe.Features = feats
			fe.HasFeatures = true
		}
		out[ei] = fe
	}
	return out, nil
}

// resolve interpolates the pending missing-sample gap against the new
// present sample s and feeds the whole resolved chunk to the detector.
// The chunk [anchor?, pending..., s] reproduces the neighbourhood the
// full-series interpolation would use, so the filled values are identical.
func (fs *fiberState) resolve(s optical.Sample) ([]telemetry.FiberEvent, error) {
	chunk := make([]optical.Sample, 0, len(fs.pending)+2)
	start := 0
	if fs.hasAnchor {
		chunk = append(chunk, fs.anchor)
		start = 1
	}
	chunk = append(chunk, fs.pending...)
	chunk = append(chunk, s)
	var out []telemetry.FiberEvent
	for _, is := range telemetry.Interpolate(chunk)[start:] {
		evs, err := fs.observe(is)
		if err != nil {
			return nil, err
		}
		out = append(out, evs...)
	}
	fs.anchor = s
	fs.hasAnchor = true
	fs.pending = fs.pending[:0]
	return out, nil
}

// process runs the fiber's drained sample run through streaming
// interpolation and the detector. final resolves a trailing missing gap by
// copying the nearest present sample (the full-series trailing-gap rule);
// non-final flushes hold trailing missing samples for the next window.
func (fs *fiberState) process(final bool) ([]telemetry.FiberEvent, error) {
	var out []telemetry.FiberEvent
	for _, s := range fs.run {
		if s.Missing {
			fs.pending = append(fs.pending, s)
			continue
		}
		if len(fs.pending) == 0 {
			// Fast path: no gap to fill — interpolation of a gapless run is
			// the identity, so the sample goes straight to the detector.
			evs, err := fs.observe(s)
			if err != nil {
				return nil, err
			}
			out = append(out, evs...)
			fs.anchor = s
			fs.hasAnchor = true
			continue
		}
		evs, err := fs.resolve(s)
		if err != nil {
			return nil, err
		}
		out = append(out, evs...)
	}
	fs.run = fs.run[:0]
	if final && len(fs.pending) > 0 {
		chunk := make([]optical.Sample, 0, len(fs.pending)+1)
		start := 0
		if fs.hasAnchor {
			chunk = append(chunk, fs.anchor)
			start = 1
		}
		chunk = append(chunk, fs.pending...)
		for _, is := range telemetry.Interpolate(chunk)[start:] {
			evs, err := fs.observe(is)
			if err != nil {
				return nil, err
			}
			out = append(out, evs...)
		}
		fs.pending = fs.pending[:0]
	}
	return out, nil
}

// Pipeline is the telemetry front-end. It is driven by one goroutine: Tick
// admits a tick's arrivals, drains the compute budget, and (on window
// boundaries) flushes detector runs; Flush ends the stream. Everything runs
// serially on the caller's goroutine, so the Pipeline is not safe for
// concurrent calls.
type Pipeline struct {
	net    *topology.Network
	cfg    Config
	wmark  int           // watermark row in samples, >= 1
	fibers []*fiberState // ascending fiber id

	tick    int64
	flushes int64

	ingested, emitted, dropped, merged, crossings int64

	ingestedC, emittedC, droppedC, mergedC *obs.Counter
	crossingsC, eventsC, ticksC, flushesC  *obs.Counter
	tickT                                  *obs.Timer
	depthG                                 *obs.Gauge
}

// New builds a pipeline over the network's fibers. Every fiber gets a
// state slot up front (rings allocate lazily), so drain and flush order are
// fixed at construction.
func New(net *topology.Network, cfg Config) (*Pipeline, error) {
	if net == nil {
		return nil, fmt.Errorf("ingest: nil network")
	}
	cfg = cfg.withDefaults()
	p := &Pipeline{
		net:   net,
		cfg:   cfg,
		wmark: watermarkRow(cfg.RingCapacity, cfg.HighWatermark),
	}
	p.fibers = make([]*fiberState, len(net.Fibers))
	for i := range net.Fibers {
		det := telemetry.NewDetector(cfg.ConfirmSamples)
		det.SetMetrics(cfg.Metrics)
		p.fibers[i] = &fiberState{id: i, fib: net.Fibers[i], det: det}
	}
	reg := cfg.Metrics
	p.ingestedC = reg.Counter("ingest.samples.ingested")
	p.emittedC = reg.Counter("ingest.samples.emitted")
	p.droppedC = reg.Counter("ingest.samples.dropped")
	p.mergedC = reg.Counter("ingest.samples.merged")
	p.crossingsC = reg.Counter("ingest.watermark.crossings")
	p.eventsC = reg.Counter("ingest.events.emitted")
	p.ticksC = reg.Counter("ingest.ticks")
	p.flushesC = reg.Counter("ingest.flushes")
	p.tickT = reg.Timer("ingest.tick.latency")
	p.depthG = reg.Gauge("ingest.depth")
	return p, nil
}

// watermarkRow converts the watermark fraction to a sample count in
// [1, capacity].
func watermarkRow(capacity int, frac float64) int {
	w := int(frac * float64(capacity))
	if w < 1 {
		w = 1
	}
	if w > capacity {
		w = capacity
	}
	return w
}

// Config returns the pipeline's resolved configuration (defaults applied).
func (p *Pipeline) Config() Config { return p.cfg }

// admit applies the watermark policy to one arrival. It runs serially in
// arrival order; every branch is a pure function of the ring's occupancy.
func (p *Pipeline) admit(a Arrival) {
	fs := p.fibers[a.Fiber]
	p.ingested++
	p.ingestedC.Inc()
	capacity := p.cfg.RingCapacity
	mergeable := func() bool {
		if fs.ring.n == 0 || a.Sample.Missing {
			return false
		}
		newest := fs.ring.newest()
		return !newest.Missing && newest.State == a.Sample.State
	}
	switch {
	case fs.ring.n < p.wmark:
		fs.ring.push(capacity, a.Sample)
	case fs.ring.n >= capacity:
		if mergeable() {
			*fs.ring.newest() = a.Sample
			fs.merged++
			p.merged++
			p.mergedC.Inc()
		} else {
			fs.dropped++
			p.dropped++
			p.droppedC.Inc()
		}
	default: // at/above watermark, below capacity: coalesce when possible
		if mergeable() {
			*fs.ring.newest() = a.Sample
			fs.merged++
			p.merged++
			p.mergedC.Inc()
		} else {
			fs.ring.push(capacity, a.Sample)
		}
	}
	if !fs.above && fs.ring.n >= p.wmark {
		fs.above = true
		p.crossings++
		p.crossingsC.Inc()
	}
}

// drain moves up to budget queued samples (budget <= 0: all of them) from
// rings to flush runs, one sample per fiber per round (round-robin in
// ascending fiber order), so a single hot fiber cannot starve the others.
func (p *Pipeline) drain(budget int) {
	unlimited := budget <= 0
	var emitted int64
	for progressed := true; progressed; {
		progressed = false
		for _, fs := range p.fibers {
			if fs.ring.n == 0 {
				continue
			}
			if !unlimited {
				if budget == 0 {
					progressed = false
					break
				}
				budget--
			}
			fs.run = append(fs.run, fs.ring.pop())
			emitted++
			progressed = true
		}
	}
	p.emitted += emitted
	p.emittedC.Add(emitted)
	var depth int
	for _, fs := range p.fibers {
		if fs.above && fs.ring.n < p.wmark {
			fs.above = false
		}
		depth += fs.ring.n
	}
	p.depthG.Set(float64(depth))
}

// Tick advances the pipeline by one logical tick: arrivals are admitted in
// order under the watermark policy, the pipeline drains its compute budget,
// and on a flush boundary every fiber's drained run goes through
// interpolation, detection, and feature extraction. The returned batches
// (nil between flush boundaries) are ordered by ascending fiber id.
func (p *Pipeline) Tick(arrivals []Arrival) ([]FiberEvents, error) {
	for _, a := range arrivals {
		if a.Fiber < 0 || a.Fiber >= len(p.fibers) {
			return nil, fmt.Errorf("ingest: fiber %d out of range [0,%d)", a.Fiber, len(p.fibers))
		}
	}
	t0 := p.tickT.Start()
	for _, a := range arrivals {
		p.admit(a)
	}
	p.tick++
	p.ticksC.Inc()
	flush := p.tick%int64(p.cfg.FlushTicks) == 0
	out, err := p.run(flush, false)
	p.tickT.Stop(t0)
	return out, err
}

// Flush ends the stream: every ring drains regardless of the compute
// budget, every run is processed, and trailing missing-sample gaps resolve
// by the full-series trailing-gap rule. Afterwards Queued is zero and the
// accounting identity holds exactly. The pipeline stays usable — a later
// Tick starts a fresh window against the preserved detector state.
func (p *Pipeline) Flush() ([]FiberEvents, error) {
	return p.run(true, true)
}

// run drains the compute budget (all of it when final) and, when flushing,
// runs every fiber's drained samples through the detector in ascending
// fiber order.
func (p *Pipeline) run(flush, final bool) ([]FiberEvents, error) {
	budget := p.cfg.DrainPerTick
	if final {
		budget = 0 // unlimited: end-of-stream drains everything
	}
	p.drain(budget)
	if !flush {
		return nil, nil
	}
	var out []FiberEvents
	var nEvents int64
	for _, fs := range p.fibers {
		if len(fs.run) == 0 && !(final && len(fs.pending) > 0) {
			continue
		}
		evs, err := fs.process(final)
		if err != nil {
			return nil, err
		}
		if len(evs) > 0 {
			out = append(out, FiberEvents{Fiber: fs.id, Events: evs})
			nEvents += int64(len(evs))
		}
	}
	p.flushes++
	p.flushesC.Inc()
	p.eventsC.Add(nEvents)
	return out, nil
}

// Stats snapshots the exact accounting. Call it from the driving goroutine
// (between Ticks), like every other Pipeline method.
func (p *Pipeline) Stats() Stats {
	s := Stats{
		Ingested:           p.ingested,
		Emitted:            p.emitted,
		Dropped:            p.dropped,
		Merged:             p.merged,
		WatermarkCrossings: p.crossings,
		Ticks:              p.tick,
		Flushes:            p.flushes,
		PerFiberDropped:    make([]int64, len(p.fibers)),
		PerFiberMerged:     make([]int64, len(p.fibers)),
	}
	for i, fs := range p.fibers {
		s.PerFiberDropped[i] = fs.dropped
		s.PerFiberMerged[i] = fs.merged
		s.Queued += int64(fs.ring.n + len(fs.run) + len(fs.pending))
	}
	return s
}

// RunReplay streams whole per-fiber series through the pipeline at one
// sample per fiber per tick — the production-rate schedule equivalent to a
// ProcessBatch replay — followed by a final Flush, and returns each fiber's
// events aligned to the input rows exactly like telemetry.ProcessBatch.
// Each fiber may appear at most once (its detector is owned by one row).
// With backpressure never triggered the result is byte-identical to
// ProcessBatch over the same series.
func (p *Pipeline) RunReplay(series []telemetry.FiberSeries) ([][]telemetry.FiberEvent, error) {
	row := make(map[int]int, len(series))
	maxLen := 0
	for i, fs := range series {
		if fs.Fiber < 0 || fs.Fiber >= len(p.fibers) {
			return nil, fmt.Errorf("ingest: fiber %d out of range [0,%d)", fs.Fiber, len(p.fibers))
		}
		if _, dup := row[fs.Fiber]; dup {
			return nil, fmt.Errorf("ingest: fiber %d appears twice in replay", fs.Fiber)
		}
		row[fs.Fiber] = i
		if len(fs.Samples) > maxLen {
			maxLen = len(fs.Samples)
		}
	}
	out := make([][]telemetry.FiberEvent, len(series))
	for i := range out {
		// ProcessBatch returns a non-nil (possibly empty) row per fiber;
		// match it exactly so the byte-for-byte contract includes rows
		// without events.
		out[i] = []telemetry.FiberEvent{}
	}
	collect := func(batches []FiberEvents) {
		for _, b := range batches {
			i := row[b.Fiber]
			out[i] = append(out[i], b.Events...)
		}
	}
	arrivals := make([]Arrival, 0, len(series))
	for t := 0; t < maxLen; t++ {
		arrivals = arrivals[:0]
		for _, fs := range series {
			if t < len(fs.Samples) {
				arrivals = append(arrivals, Arrival{Fiber: fs.Fiber, Sample: fs.Samples[t]})
			}
		}
		batches, err := p.Tick(arrivals)
		if err != nil {
			return nil, err
		}
		collect(batches)
	}
	batches, err := p.Flush()
	if err != nil {
		return nil, err
	}
	collect(batches)
	return out, nil
}
