// Package ingest is the telemetry front-end, §3.1's one stage from
// per-second optical samples to detector events: every production path
// (prete.System.Observe, the testbed, fig8, the benchmark) feeds samples
// through a Pipeline. telemetry.ProcessBatch is the whole-series reference
// it is checked against.
//
// Dataflow, one logical tick at a time, one serial loop over fibers:
//
//	arrivals ──append──▶ per-fiber run ──process──▶ Detector ──▶ events
//	                    (arrival order)  (interpolation +
//	                                      feature extraction,
//	                                      ascending fiber order)
//
// A live deployment sends one sample per fiber per tick; a replay may send
// a fiber's whole series in one tick. Either way Tick processes every
// arrival before it returns, so nothing queues between ticks except a
// fiber's trailing missing samples, which wait for their right
// interpolation neighbour (or for Flush). However the arrivals are chunked
// into ticks, the emitted events equal telemetry.ProcessBatch over the
// same per-fiber series byte for byte (pinned by the equivalence tests,
// enforced under mutation by FuzzIngest).
package ingest

import (
	"fmt"

	"prete/internal/obs"
	"prete/internal/optical"
	"prete/internal/telemetry"
	"prete/internal/topology"
)

// Arrival is one telemetry sample arriving at the front-end, the unit of
// the streaming schedule. A fiber's arrivals are processed in slice order;
// the same fiber may appear any number of times per tick.
type Arrival struct {
	Fiber  int
	Sample optical.Sample
}

// confirmSamples is the per-transition confirmation count of the per-fiber
// detectors (telemetry.Detector): the paper's 2-sample confirmation.
const confirmSamples = 2

// Config tunes a Pipeline. The zero Config runs without metrics.
type Config struct {
	// Metrics, when non-nil, receives the ingest.* observability series and,
	// through the detectors, the telemetry.* counters. Metrics are
	// write-only: the pipeline never reads them.
	Metrics *obs.Registry
}

// DefaultConfig returns the zero Config: no metrics.
func DefaultConfig() Config { return Config{} }

// Stats is a point-in-time snapshot of the pipeline's accounting. After a
// final Flush, Ingested == Emitted.
type Stats struct {
	// Ingested counts every arrival of a valid fiber id.
	Ingested int64
	// Emitted counts samples handed to the detectors. Ingested - Emitted is
	// the trailing missing samples held for their interpolation neighbour.
	Emitted int64
	// Dropped and Merged are always zero: the pipeline never sheds a
	// sample. They remain for the benchmark harness, which reads them.
	Dropped, Merged int64
}

// FiberEvents is one fiber's events emitted by a flush round, in detection
// order. Batches arrive in ascending fiber order within a flush.
type FiberEvents struct {
	Fiber  int
	Events []telemetry.FiberEvent
}

// fiberState is everything the pipeline holds for one fiber: the tick's
// run of arrivals, the persistent detector, and the streaming
// interpolation carry (anchor + trailing missing samples).
type fiberState struct {
	id  int
	fib topology.Fiber // hoisted lookup for feature extraction

	run []optical.Sample
	det *telemetry.Detector

	// anchor is the last present (non-missing) sample already handed to the
	// detector; pending holds trailing missing samples awaiting their right
	// interpolation neighbour. Together they make chunked interpolation
	// byte-identical to telemetry.Interpolate over the full series.
	anchor    optical.Sample
	hasAnchor bool
	pending   []optical.Sample
}

// observe feeds one (already interpolated) sample to the fiber's detector
// and appends any resulting events to out, annotated with the §3.2
// degradation features exactly as telemetry.ProcessBatch does.
func (fs *fiberState) observe(out []telemetry.FiberEvent, s optical.Sample) ([]telemetry.FiberEvent, error) {
	for ei, ev := range fs.det.Observe(s) {
		fe := telemetry.FiberEvent{Event: ev}
		if len(ev.Window) > 0 {
			feats, err := optical.ExtractFeatures(ev.Window, fs.id, fs.fib.Region, fs.fib.Vendor, fs.fib.LengthKm)
			if err != nil {
				return nil, fmt.Errorf("ingest: fiber %d event %d: %w", fs.id, ei, err)
			}
			fe.Features = feats
			fe.HasFeatures = true
		}
		out = append(out, fe)
	}
	return out, nil
}

// release interpolates the held samples and feeds them to the detector.
// The chunk [anchor?, pending...] reproduces the neighbourhood the
// full-series interpolation would use, so the filled values are identical:
// a present last sample closes the gap, and at end of stream a trailing gap
// copies the nearest present sample (the full-series trailing-gap rule).
func (fs *fiberState) release(out []telemetry.FiberEvent) ([]telemetry.FiberEvent, error) {
	chunk := fs.pending
	if len(chunk) > 1 || chunk[0].Missing {
		// A lone present sample is a gapless run, which interpolates to
		// itself; anything else is a gap to fill.
		if fs.hasAnchor {
			chunk = telemetry.Interpolate(append([]optical.Sample{fs.anchor}, chunk...))[1:]
		} else {
			chunk = telemetry.Interpolate(chunk)
		}
	}
	var err error
	for _, s := range chunk {
		if out, err = fs.observe(out, s); err != nil {
			return nil, err
		}
	}
	fs.pending = fs.pending[:0]
	return out, nil
}

// process runs the fiber's run through streaming interpolation and the
// detector. final releases a trailing missing gap; otherwise it is held
// for the next tick.
func (fs *fiberState) process(final bool) ([]telemetry.FiberEvent, error) {
	var out []telemetry.FiberEvent
	var err error
	for _, s := range fs.run {
		fs.pending = append(fs.pending, s)
		if s.Missing {
			continue
		}
		if out, err = fs.release(out); err != nil {
			return nil, err
		}
		fs.anchor = s
		fs.hasAnchor = true
	}
	fs.run = fs.run[:0]
	if final && len(fs.pending) > 0 {
		return fs.release(out)
	}
	return out, nil
}

// Pipeline is the telemetry front-end. It is driven by one goroutine: Tick
// processes a tick's arrivals; Flush ends the stream. Everything runs
// serially on the caller's goroutine, so the Pipeline is not safe for
// concurrent calls.
type Pipeline struct {
	fibers []*fiberState // ascending fiber id

	ingested, emitted int64

	ingestedC, emittedC, eventsC, ticksC, flushesC *obs.Counter
	tickT                                          *obs.Timer
}

// New builds a pipeline over the network's fibers, one state slot per
// fiber, so processing order is fixed at construction.
func New(net *topology.Network, cfg Config) (*Pipeline, error) {
	if net == nil {
		return nil, fmt.Errorf("ingest: nil network")
	}
	p := &Pipeline{fibers: make([]*fiberState, len(net.Fibers))}
	for i := range net.Fibers {
		det := telemetry.NewDetector(confirmSamples)
		det.SetMetrics(cfg.Metrics)
		p.fibers[i] = &fiberState{id: i, fib: net.Fibers[i], det: det}
	}
	reg := cfg.Metrics
	p.ingestedC = reg.Counter("ingest.samples.ingested")
	p.emittedC = reg.Counter("ingest.samples.emitted")
	p.eventsC = reg.Counter("ingest.events.emitted")
	p.ticksC = reg.Counter("ingest.ticks")
	p.flushesC = reg.Counter("ingest.flushes")
	p.tickT = reg.Timer("ingest.tick.latency")
	return p, nil
}

// Tick advances the pipeline by one logical tick: every arrival is
// validated, appended to its fiber's run in arrival order, and every fiber
// with a run goes through interpolation, detection, and feature extraction.
// The returned batches are ordered by ascending fiber id.
func (p *Pipeline) Tick(arrivals []Arrival) ([]FiberEvents, error) {
	for _, a := range arrivals {
		if a.Fiber < 0 || a.Fiber >= len(p.fibers) {
			return nil, fmt.Errorf("ingest: fiber %d out of range [0,%d)", a.Fiber, len(p.fibers))
		}
	}
	t0 := p.tickT.Start()
	for _, a := range arrivals {
		fs := p.fibers[a.Fiber]
		fs.run = append(fs.run, a.Sample)
	}
	p.ingested += int64(len(arrivals))
	p.ingestedC.Add(int64(len(arrivals)))
	p.ticksC.Inc()
	out, err := p.flush(false)
	p.tickT.Stop(t0)
	return out, err
}

// Flush ends the stream: trailing missing-sample gaps resolve by the
// full-series trailing-gap rule, after which Ingested == Emitted. The
// pipeline stays usable — a later Tick continues against the preserved
// detector state.
func (p *Pipeline) Flush() ([]FiberEvents, error) {
	return p.flush(true)
}

// flush processes every fiber that has a run (or, when final, a held gap)
// in ascending fiber order.
func (p *Pipeline) flush(final bool) ([]FiberEvents, error) {
	var out []FiberEvents
	var nEvents, fed int64
	for _, fs := range p.fibers {
		if len(fs.run) == 0 && !(final && len(fs.pending) > 0) {
			continue
		}
		held := len(fs.run) + len(fs.pending)
		evs, err := fs.process(final)
		if err != nil {
			return nil, err
		}
		fed += int64(held - len(fs.pending))
		if len(evs) > 0 {
			out = append(out, FiberEvents{Fiber: fs.id, Events: evs})
			nEvents += int64(len(evs))
		}
	}
	p.emitted += fed
	p.emittedC.Add(fed)
	p.flushesC.Inc()
	p.eventsC.Add(nEvents)
	return out, nil
}

// Stats snapshots the accounting. Call it from the driving goroutine
// (between Ticks), like every other Pipeline method.
func (p *Pipeline) Stats() Stats {
	return Stats{Ingested: p.ingested, Emitted: p.emitted}
}

// RunReplay streams whole per-fiber series through the pipeline at one
// sample per fiber per tick — the production-rate schedule — followed by a
// final Flush, and returns each fiber's events aligned to the input rows
// exactly like telemetry.ProcessBatch. Each fiber may appear at most once
// (its detector is owned by one row). The result is byte-identical to
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
