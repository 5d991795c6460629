// Package telemetry implements the optical telemetry pipeline from §3.1:
// per-second collection of Tx/Rx power (following OpTel [28]), interpolation
// of lost samples, downsampling to emulate coarse traditional collectors
// (§8 / Appendix A.8), and the state-machine detector that turns raw loss
// series into degradation and cut events.
package telemetry

import (
	"fmt"

	"prete/internal/obs"
	"prete/internal/optical"
)

// EventType identifies a detector transition.
type EventType int

// Detector events.
const (
	DegradationStart EventType = iota
	DegradationEnd
	CutDetected
	Repaired
)

// String names the detector event type.
func (e EventType) String() string {
	switch e {
	case DegradationStart:
		return "degradation-start"
	case DegradationEnd:
		return "degradation-end"
	case CutDetected:
		return "cut"
	default:
		return "repaired"
	}
}

// Event is one detected fiber-state transition.
type Event struct {
	Type EventType
	// Window holds the degraded samples observed so far (for
	// DegradationStart/End and CutDetected events); feature extraction
	// consumes it.
	Window []optical.Sample
}

// maxWindow bounds an episode's window: one TE period at 1 Hz. The window
// only feeds feature extraction, and nothing reads features over a longer
// span, so a standing degradation keeps its first maxWindow samples (the
// onset anchors HourOfDay) instead of growing without bound.
const maxWindow = 300

// Detector is a per-fiber-entity state machine. ConfirmSamples consecutive
// samples in a new state are required before a transition fires, which
// keeps single-sample noise from generating events.
type Detector struct {
	ConfirmSamples int

	state     optical.State
	candidate optical.State
	streak    int
	window    []optical.Sample // degraded samples of the current episode, at most maxWindow

	// Metric handles, resolved once by SetMetrics; nil handles no-op, so an
	// uninstrumented detector pays two nil checks per sample.
	samplesC *obs.Counter
	eventsC  *obs.Counter
	degC     *obs.Counter
	cutsC    *obs.Counter
}

// NewDetector returns a detector starting in the healthy state.
func NewDetector(confirmSamples int) *Detector {
	if confirmSamples < 1 {
		confirmSamples = 1
	}
	return &Detector{ConfirmSamples: confirmSamples, state: optical.Healthy, candidate: optical.Healthy}
}

// SetMetrics points the detector at a registry: telemetry.samples.observed,
// telemetry.events.detected, telemetry.degradations.detected, and
// telemetry.cuts.detected. Pass nil to detach. Metrics are write-only; the
// state machine never reads them.
func (d *Detector) SetMetrics(r *obs.Registry) {
	if r == nil {
		d.samplesC, d.eventsC, d.degC, d.cutsC = nil, nil, nil, nil
		return
	}
	d.samplesC = r.Counter("telemetry.samples.observed")
	d.eventsC = r.Counter("telemetry.events.detected")
	d.degC = r.Counter("telemetry.degradations.detected")
	d.cutsC = r.Counter("telemetry.cuts.detected")
}

// Observe feeds one sample and returns any events it triggers. A direct
// healthy->cut observation (an abrupt cut, the unpredictable 75% in Fig 5b)
// yields a CutDetected with an empty window.
func (d *Detector) Observe(s optical.Sample) []Event {
	d.samplesC.Inc()
	observed := optical.Classify(s.ExcessDB)
	if observed == d.state {
		d.candidate = d.state
		d.streak = 0
		if d.state == optical.Degraded {
			d.collect(s)
		}
		return nil
	}
	if observed != d.candidate {
		d.candidate = observed
		d.streak = 1
	} else {
		d.streak++
	}
	if d.state == optical.Degraded {
		// Keep collecting while the transition is unconfirmed: these
		// samples are part of the episode either way.
		d.collect(s)
	}
	if d.streak < d.ConfirmSamples {
		return nil
	}
	// Confirmed transition.
	prev := d.state
	d.state = d.candidate
	d.streak = 0
	var events []Event
	switch {
	case prev == optical.Healthy && d.state == optical.Degraded:
		d.window = append(d.window[:0], s)
		events = append(events, Event{Type: DegradationStart, Window: snapshot(d.window)})
	case prev == optical.Degraded && d.state == optical.Healthy:
		events = append(events, Event{Type: DegradationEnd, Window: snapshot(d.window)})
		d.window = nil
	case prev == optical.Degraded && d.state == optical.Cut:
		events = append(events, Event{Type: CutDetected, Window: snapshot(d.window)})
		d.window = nil
	case prev == optical.Healthy && d.state == optical.Cut:
		events = append(events, Event{Type: CutDetected})
	case prev == optical.Cut && d.state == optical.Healthy:
		events = append(events, Event{Type: Repaired})
	case prev == optical.Cut && d.state == optical.Degraded:
		// Partial repair: treat as a fresh degradation episode.
		d.window = append(d.window[:0], s)
		events = append(events, Event{Type: Repaired},
			Event{Type: DegradationStart, Window: snapshot(d.window)})
	}
	d.eventsC.Add(int64(len(events)))
	for _, e := range events {
		switch e.Type {
		case DegradationStart:
			d.degC.Inc()
		case CutDetected:
			d.cutsC.Inc()
		}
	}
	return events
}

// collect appends s to the episode window unless it already holds
// maxWindow samples.
func (d *Detector) collect(s optical.Sample) {
	if len(d.window) < maxWindow {
		d.window = append(d.window, s)
	}
}

func snapshot(w []optical.Sample) []optical.Sample {
	return append([]optical.Sample(nil), w...)
}

// Interpolate fills Missing samples by linear interpolation between their
// healthy neighbours ("we apply interpolation methods to complete the
// missing data", §3.1). Leading/trailing gaps copy the nearest present
// sample. The input is not modified.
func Interpolate(samples []optical.Sample) []optical.Sample {
	out := append([]optical.Sample(nil), samples...)
	n := len(out)
	i := 0
	for i < n {
		if !out[i].Missing {
			i++
			continue
		}
		// find gap [i, j)
		j := i
		for j < n && out[j].Missing {
			j++
		}
		var loss func(k int) float64
		switch {
		case i == 0 && j == n:
			// nothing known; leave as-is
			i = j
			continue
		case i == 0:
			v := out[j].LossDB
			loss = func(int) float64 { return v }
		case j == n:
			v := out[i-1].LossDB
			loss = func(int) float64 { return v }
		default:
			lo, hi := out[i-1].LossDB, out[j].LossDB
			span := float64(j - (i - 1))
			loss = func(k int) float64 {
				frac := float64(k-(i-1)) / span
				return lo + (hi-lo)*frac
			}
		}
		for k := i; k < j; k++ {
			l := loss(k)
			base := out[k].LossDB - out[k].ExcessDB // baseline is loss - excess
			out[k].LossDB = l
			out[k].ExcessDB = l - base
			out[k].RxDBm = out[k].TxDBm - l
			out[k].State = optical.Classify(out[k].ExcessDB)
			out[k].Missing = false
		}
		i = j
	}
	return out
}

// Downsample keeps one sample per granularityS seconds (the first of each
// bucket), emulating traditional minute-level collectors (§3.1's 3-minute
// example, Appendix A.8's granularity sweep).
func Downsample(samples []optical.Sample, granularityS int) ([]optical.Sample, error) {
	if granularityS < 1 {
		return nil, fmt.Errorf("telemetry: granularity must be >= 1s, got %d", granularityS)
	}
	if granularityS == 1 {
		return append([]optical.Sample(nil), samples...), nil
	}
	var out []optical.Sample
	var nextAt int64
	for i, s := range samples {
		if i == 0 {
			nextAt = s.UnixS
		}
		if s.UnixS >= nextAt {
			out = append(out, s)
			nextAt = s.UnixS + int64(granularityS)
		}
	}
	return out, nil
}
