// Package obs is the repository's observability layer: a small,
// dependency-free, concurrency-safe metrics registry with counters, gauges,
// fixed-bucket histograms, and stage timers, plus deterministic text/JSON
// snapshot output.
//
// Design rules, in the order they matter to this repo:
//
//   - Nil-safe / zero-cost-when-disabled. Every method on *Registry and on
//     the metric handles is a no-op on a nil receiver, so instrumented code
//     carries a possibly-nil *Registry and never branches on it:
//
//     reg.Counter("core.benders.iterations").Add(int64(iters))
//
//     With reg == nil the chain costs two nil checks and no allocation. The
//     Timer.Start / Timer.Stop pair does not even read the clock when the
//     timer is nil, so disabled instrumentation cannot perturb performance
//     measurements.
//
//   - Must not perturb results. Metrics are write-only side channels: no
//     instrumented code path reads a metric to make a decision, so optimizer
//     and evaluator outputs are bit-identical with metrics on and off (the
//     regression tests in internal/core assert this).
//
//   - Deterministic snapshots. Snapshot output is sorted by metric name, and
//     the JSON encoding of two registries that observed the same values is
//     byte-identical. (Timer values are wall-clock and therefore vary run to
//     run; counters, gauges, and histograms fed deterministic values are
//     fully reproducible.)
//
//   - Concurrency-safe. Handles use atomics; the registry maps are guarded
//     by a mutex only on handle resolution, which hot paths do once up front
//     (see the unexported *Obs structs in core, sim, telemetry, par, wan).
//
// The registry is exposed to operators via expvar (PublishExpvar) and an
// optional net/http/pprof-enabled debug endpoint (ServeDebug); the CLIs wire
// these behind `prete-sim -metrics` and `prete-testbed -debug-addr`.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is a named-metric namespace. The zero value is not usable; use
// NewRegistry. A nil *Registry is the "metrics disabled" state: every method
// no-ops and every handle it returns is nil (which also no-ops).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	timers   map[string]*Timer
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		timers:   make(map[string]*Timer),
	}
}

// Counter returns (creating on first use) the named counter, or nil when the
// registry is nil.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating on first use) the named gauge, or nil when the
// registry is nil.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating on first use) the named fixed-bucket
// histogram, or nil when the registry is nil. bounds are the inclusive
// bucket upper edges and must be sorted ascending; an implicit +Inf overflow
// bucket is appended. On the first call the bounds are fixed; later calls
// return the existing histogram regardless of the bounds argument.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Timer returns (creating on first use) the named stage timer, or nil when
// the registry is nil.
func (r *Registry) Timer(name string) *Timer {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.timers[name]
	if !ok {
		t = &Timer{}
		r.timers[name] = t
	}
	return t
}

// Counter is a monotonically increasing int64. All methods are nil-safe and
// safe for concurrent use.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float64. All methods are nil-safe and safe for
// concurrent use.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds d to the gauge (atomic read-modify-write).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. Bucket i counts values
// v with v <= Bounds[i] (and, for i > 0, v > Bounds[i-1]); the final bucket
// is the +Inf overflow. All methods are nil-safe and safe for concurrent
// use; Observe is lock-free.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last is overflow
	total  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b) // defensive: edges must ascend for SearchFloat64s
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bucket whose upper edge is >= v; equality lands on the edge's
	// own bucket (inclusive upper bounds, "le" semantics).
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// Sum returns the sum of observed values (0 for nil). Concurrent observers
// make the accumulation order nondeterministic, so Sum is bit-reproducible
// only for serial (or commutative-exact, e.g. integer-valued) workloads.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}
