package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Snapshot is a point-in-time copy of a registry's metrics, suitable for
// JSON encoding. Maps encode with sorted keys (encoding/json's behaviour),
// so two snapshots holding equal values marshal to byte-identical JSON.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	Timers     map[string]TimerSnapshot     `json:"timers"`
}

// HistogramSnapshot is one histogram's frozen state. Counts is parallel to
// Bounds plus one trailing +Inf overflow bucket.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// TimerSnapshot is one timer's frozen state, in milliseconds.
type TimerSnapshot struct {
	Count   int64   `json:"count"`
	TotalMS float64 `json:"total_ms"`
	MeanMS  float64 `json:"mean_ms"`
	MaxMS   float64 `json:"max_ms"`
}

// Snapshot copies the registry's current state. A nil registry yields an
// empty (but fully initialized) snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
		Timers:     map[string]TimerSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]int64, len(h.counts)),
			Count:  h.Count(),
			Sum:    h.Sum(),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		s.Histograms[name] = hs
	}
	for name, t := range r.timers {
		ts := TimerSnapshot{
			Count:   t.Count(),
			TotalMS: float64(t.Total().Nanoseconds()) / 1e6,
			MaxMS:   float64(t.Max().Nanoseconds()) / 1e6,
		}
		if ts.Count > 0 {
			ts.MeanMS = ts.TotalMS / float64(ts.Count)
		}
		s.Timers[name] = ts
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON followed by a newline.
// Output is deterministic for deterministic metric values: keys sort, and
// float formatting is encoding/json's shortest round-trip form.
func (r *Registry) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteText writes a line-oriented human-readable snapshot, one metric per
// line, sorted by name within each section.
func (r *Registry) WriteText(w io.Writer) error {
	s := r.Snapshot()
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	for _, name := range sortedKeys(s.Counters) {
		p("counter %-40s %d\n", name, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		p("gauge   %-40s %g\n", name, s.Gauges[name])
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		p("hist    %-40s count=%d sum=%g buckets=", name, h.Count, h.Sum)
		for i, c := range h.Counts {
			edge := "+Inf"
			if i < len(h.Bounds) {
				edge = fmt.Sprintf("%g", h.Bounds[i])
			}
			if i > 0 {
				p(" ")
			}
			p("le(%s)=%d", edge, c)
		}
		p("\n")
	}
	for _, name := range sortedKeys(s.Timers) {
		t := s.Timers[name]
		p("timer   %-40s count=%d total=%.3fms mean=%.3fms max=%.3fms\n",
			name, t.Count, t.TotalMS, t.MeanMS, t.MaxMS)
	}
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// CountBuckets returns histogram edges for iteration/pivot-style counts on
// a power-of-two-ish grid.
func CountBuckets() []float64 {
	return []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384}
}
