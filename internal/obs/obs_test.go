package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// populate performs a fixed, deterministic sequence of metric operations.
func populate(r *Registry) {
	r.Counter("a.count").Add(3)
	r.Counter("b.count").Inc()
	r.Counter("z.count").Add(40)
	r.Gauge("g.level").Set(2.5)
	r.Gauge("g.level").Add(0.25)
	h := r.Histogram("h.sizes", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 1.5, 10, 99, 100, 101, 1e6} {
		h.Observe(v)
	}
	r.Timer("t.stage").Observe(1500 * time.Microsecond)
	r.Timer("t.stage").Observe(500 * time.Microsecond)
}

// TestSnapshotDeterminism: two registries fed the identical operation
// sequence must produce byte-identical JSON and text snapshots.
func TestSnapshotDeterminism(t *testing.T) {
	var bufs [2]bytes.Buffer
	var txts [2]bytes.Buffer
	for i := range bufs {
		r := NewRegistry()
		populate(r)
		if err := r.WriteJSON(&bufs[i]); err != nil {
			t.Fatal(err)
		}
		if err := r.WriteText(&txts[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Errorf("JSON snapshots differ:\n%s\n---\n%s", bufs[0].String(), bufs[1].String())
	}
	if !bytes.Equal(txts[0].Bytes(), txts[1].Bytes()) {
		t.Errorf("text snapshots differ:\n%s\n---\n%s", txts[0].String(), txts[1].String())
	}
	// The JSON must round-trip as a Snapshot and keep the recorded values.
	var s Snapshot
	if err := json.Unmarshal(bufs[0].Bytes(), &s); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v", err)
	}
	if s.Counters["a.count"] != 3 || s.Counters["z.count"] != 40 {
		t.Errorf("counters lost in round-trip: %+v", s.Counters)
	}
	if s.Gauges["g.level"] != 2.75 {
		t.Errorf("gauge = %v, want 2.75", s.Gauges["g.level"])
	}
}

// TestHistogramBucketEdges pins the inclusive-upper-edge ("le") semantics,
// including values exactly on an edge and overflow past the last edge.
func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("edges", []float64{1, 10, 100})
	cases := []struct {
		v      float64
		bucket int
	}{
		{-5, 0}, {0, 0}, {1, 0}, // v <= 1
		{1.0000001, 1}, {10, 1}, // 1 < v <= 10
		{10.5, 2}, {100, 2}, // 10 < v <= 100
		{100.5, 3}, {1e9, 3}, // overflow
	}
	for _, c := range cases {
		before := make([]int64, len(h.counts))
		for i := range h.counts {
			before[i] = h.counts[i].Load()
		}
		h.Observe(c.v)
		for i := range h.counts {
			want := before[i]
			if i == c.bucket {
				want++
			}
			if got := h.counts[i].Load(); got != want {
				t.Errorf("Observe(%g): bucket %d = %d, want %d", c.v, i, got, want)
			}
		}
	}
	if h.Count() != int64(len(cases)) {
		t.Errorf("Count = %d, want %d", h.Count(), len(cases))
	}
	// Unsorted bounds are sorted defensively at creation.
	h2 := r.Histogram("unsorted", []float64{100, 1, 10})
	h2.Observe(5)
	if got := h2.counts[1].Load(); got != 1 {
		t.Errorf("unsorted-bounds histogram put 5 in the wrong bucket")
	}
}

// TestConcurrentIncrements hammers every metric kind from many goroutines;
// run under -race this is the concurrency-safety proof, and the totals
// check catches lost updates.
func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h", []float64{0.5}).Observe(1)
				r.Timer("t").Observe(time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	const want = workers * perWorker
	if got := r.Counter("c").Value(); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	if got := r.Gauge("g").Value(); got != want {
		t.Errorf("gauge = %g, want %d", got, want)
	}
	h := r.Histogram("h", nil)
	if got := h.Count(); got != want {
		t.Errorf("histogram count = %d, want %d", got, want)
	}
	if got := h.Sum(); got != want {
		t.Errorf("histogram sum = %g, want %d", got, want)
	}
	if got := r.Timer("t").Count(); got != want {
		t.Errorf("timer count = %d, want %d", got, want)
	}
}

// TestNilRegistrySafe: the full instrumentation surface must no-op (not
// panic) on the nil registry, and nil-timer Start must not read the clock
// (asserted via the zero time contract).
func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(5)
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	r.Gauge("x").Add(1)
	r.Histogram("x", []float64{1}).Observe(2)
	start := r.Timer("x").Start()
	if !start.IsZero() {
		t.Error("nil timer Start read the clock")
	}
	r.Timer("x").Stop(start)
	r.Timer("x").Observe(time.Second)
	r.PublishExpvar("obs-nil-test")
	if got := r.Counter("x").Value(); got != 0 {
		t.Errorf("nil counter value = %d", got)
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Timers) != 0 {
		t.Errorf("nil snapshot not empty: %+v", s)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"counters": {}`) {
		t.Errorf("nil snapshot JSON missing empty sections: %s", buf.String())
	}
}

// TestTimerStages exercises the Start/Stop pair and the max tracking.
func TestTimerStages(t *testing.T) {
	r := NewRegistry()
	tm := r.Timer("stage")
	st := tm.Start()
	if st.IsZero() {
		t.Fatal("enabled timer returned zero start")
	}
	tm.Stop(st)
	tm.Observe(5 * time.Millisecond)
	tm.Observe(2 * time.Millisecond)
	if tm.Count() != 3 {
		t.Errorf("count = %d, want 3", tm.Count())
	}
	if tm.Max() < 5*time.Millisecond {
		t.Errorf("max = %v, want >= 5ms", tm.Max())
	}
	if tm.Total() < tm.Max() {
		t.Errorf("total %v < max %v", tm.Total(), tm.Max())
	}
	// Stop with a zero time (the nil-Start contract) records nothing.
	tm.Stop(time.Time{})
	if tm.Count() != 3 {
		t.Errorf("Stop(zero) recorded a sample")
	}
}

// TestDebugEndpoint boots the debug server on a free port and checks the
// /metrics, /metrics.txt, /debug/vars, and pprof index routes respond.
func TestDebugEndpoint(t *testing.T) {
	r := NewRegistry()
	populate(r)
	r.PublishExpvar("obs-debug-test")
	addr, closeFn, err := ServeDebug("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := closeFn(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	get := func(path string) string {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if body := get("/metrics"); !strings.Contains(body, `"a.count": 3`) {
		t.Errorf("/metrics missing counter: %s", body)
	}
	if body := get("/metrics.txt"); !strings.Contains(body, "a.count") {
		t.Errorf("/metrics.txt missing counter: %s", body)
	}
	if body := get("/debug/vars"); !strings.Contains(body, "obs-debug-test") {
		t.Errorf("/debug/vars missing published registry")
	}
	if body := get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ index not served")
	}
}
