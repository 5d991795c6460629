package telemetry

import (
	"fmt"

	"prete/internal/optical"
	"prete/internal/topology"
)

// FiberSeries is one fiber's raw telemetry series, the unit of a
// whole-series replay (ProcessBatch, ingest.Pipeline.RunReplay).
type FiberSeries struct {
	Fiber   int
	Samples []optical.Sample
}

// FiberEvent is a detector event annotated with the §3.2 degradation
// features when the event carries a non-empty window. HasFeatures is false
// for abrupt cuts (empty window) and for event types without an episode.
type FiberEvent struct {
	Event
	Features    optical.Features
	HasFeatures bool
}

// ObserveSeries feeds a whole sample series through the detector and
// returns the concatenated events in observation order. It is a
// convenience over calling Observe per sample; the detector's state
// afterwards reflects the last sample.
func (d *Detector) ObserveSeries(samples []optical.Sample) []Event {
	var out []Event
	for _, s := range samples {
		out = append(out, d.Observe(s)...)
	}
	return out
}

// ProcessBatch runs the full per-fiber telemetry pipeline — interpolation
// of missing samples over the whole series, state-machine detection, and
// feature extraction for every event with a degradation window — over many
// fibers, one after another, each with a fresh detector. It is the
// whole-series reference the streaming front-end (internal/ingest) is
// checked against: at any tick chunking, ingest's output equals this byte
// for byte.
//
// Each fiber may appear at most once per batch (its detector is owned by
// one row). The returned slice is parallel to series: out[i] holds fiber
// i's events.
func ProcessBatch(net *topology.Network, series []FiberSeries, confirmSamples int) ([][]FiberEvent, error) {
	seen := make(map[int]bool, len(series))
	for _, fs := range series {
		if fs.Fiber < 0 || fs.Fiber >= len(net.Fibers) {
			return nil, fmt.Errorf("telemetry: fiber %d out of range [0,%d)", fs.Fiber, len(net.Fibers))
		}
		if seen[fs.Fiber] {
			return nil, fmt.Errorf("telemetry: fiber %d appears twice in batch", fs.Fiber)
		}
		seen[fs.Fiber] = true
	}
	out := make([][]FiberEvent, len(series))
	for i, fs := range series {
		f := net.Fiber(topology.FiberID(fs.Fiber))
		events := NewDetector(confirmSamples).ObserveSeries(Interpolate(fs.Samples))
		out[i] = make([]FiberEvent, len(events))
		for ei, ev := range events {
			fe := FiberEvent{Event: ev}
			if len(ev.Window) > 0 {
				feats, err := optical.ExtractFeatures(ev.Window, fs.Fiber, f.Region, f.Vendor, f.LengthKm)
				if err != nil {
					return nil, fmt.Errorf("telemetry: fiber %d event %d: %w", fs.Fiber, ei, err)
				}
				fe.Features = feats
				fe.HasFeatures = true
			}
			out[i][ei] = fe
		}
	}
	return out, nil
}
