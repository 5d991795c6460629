package ingest

import (
	"reflect"
	"testing"

	"prete/internal/obs"
	"prete/internal/optical"
	"prete/internal/stats"
	"prete/internal/telemetry"
	"prete/internal/topology"
)

// testSeries synthesizes one degradation episode per fiber with per-fiber
// shapes and missing samples, the same fixture shape the telemetry batch
// tests use, so interpolation and feature extraction are on the tested path.
func testSeries(t *testing.T, net *topology.Network, seed uint64) []telemetry.FiberSeries {
	t.Helper()
	series := make([]telemetry.FiberSeries, len(net.Fibers))
	for i := range net.Fibers {
		rng := stats.SubRNG(seed, uint64(i))
		sim := optical.NewFiberSim(net.Fibers[i].LengthKm, rng)
		prof := optical.DegradationProfile{
			DegreeDB:      4 + 4*rng.Float64(),
			GradientDB:    0.05,
			FluctAmpDB:    0.3,
			FluctPeriodS:  20,
			DurationS:     90,
			LeadsToCut:    i%3 == 0,
			CutDelayS:     70,
			RepairS:       25,
			OnsetUnixS:    1700000000 + int64(i)*7,
			MissingSample: 0.06,
		}
		samples, err := sim.EpisodeSeries(prof, 25)
		if err != nil {
			t.Fatalf("fiber %d: %v", i, err)
		}
		series[i] = telemetry.FiberSeries{Fiber: i, Samples: samples}
	}
	return series
}

// TestReplayMatchesProcessBatch pins the tentpole contract: with
// backpressure never triggered, the streaming pipeline's output equals the
// batch replay byte for byte — across flush windows.
func TestReplayMatchesProcessBatch(t *testing.T) {
	net, err := topology.ByName("B4")
	if err != nil {
		t.Fatal(err)
	}
	series := testSeries(t, net, 11)
	want, err := telemetry.ProcessBatch(net, series, 2)
	if err != nil {
		t.Fatal(err)
	}
	var events int
	for _, evs := range want {
		events += len(evs)
	}
	if events == 0 {
		t.Fatal("degenerate fixture: batch replay produced no events")
	}
	for _, flushTicks := range []int{1, 16, 1000000} {
		cfg := DefaultConfig()
		cfg.FlushTicks = flushTicks
		cfg.RingCapacity = 4 // tiny ring, but unlimited drain keeps it empty
		p, err := New(net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.RunReplay(series)
		if err != nil {
			t.Fatalf("flush=%d: %v", flushTicks, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("flush=%d: stream output diverges from ProcessBatch", flushTicks)
		}
		st := p.Stats()
		if st.Dropped != 0 || st.Merged != 0 {
			t.Fatalf("flush=%d: unexpected backpressure: %+v", flushTicks, st)
		}
		if st.Queued != 0 {
			t.Fatalf("flush=%d: %d samples still queued after Flush", flushTicks, st.Queued)
		}
		if st.Ingested != st.Emitted {
			t.Fatalf("flush=%d: ingested %d != emitted %d without shedding", flushTicks, st.Ingested, st.Emitted)
		}
	}
}

// overloadReplay runs the series through a deliberately starved pipeline
// (tiny rings, drain budget well below the arrival rate) and returns the
// pipeline for inspection.
func overloadReplay(t *testing.T, net *topology.Network, series []telemetry.FiberSeries, drain int) *Pipeline {
	t.Helper()
	cfg := Config{
		RingCapacity:   8,
		HighWatermark:  0.5,
		DrainPerTick:   drain, // compute is a few samples per tick: ingest outruns it
		FlushTicks:     4,
		ConfirmSamples: 2,
	}
	p, err := New(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunReplay(series); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestOverloadAccountingExact is the fault-injected overload test of the
// acceptance criteria: with compute budgeted far below the arrival rate,
// load is shed, and the accounting identity holds exactly —
// ingested = emitted + dropped + merged — with nothing left queued.
func TestOverloadAccountingExact(t *testing.T) {
	net, err := topology.ByName("B4")
	if err != nil {
		t.Fatal(err)
	}
	series := testSeries(t, net, 23)
	p := overloadReplay(t, net, series, 3)
	st := p.Stats()
	if st.Dropped == 0 {
		t.Fatal("overload produced no drops")
	}
	if st.Merged == 0 {
		t.Fatal("overload produced no merges")
	}
	if st.WatermarkCrossings == 0 {
		t.Fatal("overload crossed no watermarks")
	}
	if st.Queued != 0 {
		t.Fatalf("%d samples still queued after final Flush", st.Queued)
	}
	if st.Ingested != st.Emitted+st.Dropped+st.Merged {
		t.Fatalf("accounting leak: ingested %d != emitted %d + dropped %d + merged %d",
			st.Ingested, st.Emitted, st.Dropped, st.Merged)
	}
	var perDrop, perMerge int64
	for i := range st.PerFiberDropped {
		perDrop += st.PerFiberDropped[i]
		perMerge += st.PerFiberMerged[i]
	}
	if perDrop != st.Dropped || perMerge != st.Merged {
		t.Fatalf("per-fiber lineage (%d dropped, %d merged) disagrees with totals (%d, %d)",
			perDrop, perMerge, st.Dropped, st.Merged)
	}
}

// TestOverloadDeterministicReplay pins that drop/merge decisions are
// bit-identical across runs for a fixed schedule and configuration — shed
// load replays exactly, including its per-fiber lineage and the emitted
// events.
func TestOverloadDeterministicReplay(t *testing.T) {
	net, err := topology.ByName("B4")
	if err != nil {
		t.Fatal(err)
	}
	series := testSeries(t, net, 29)
	run := func() (Stats, [][]telemetry.FiberEvent) {
		cfg := Config{
			RingCapacity: 8, HighWatermark: 0.5,
			DrainPerTick: 6, FlushTicks: 4, ConfirmSamples: 2,
		}
		p, err := New(net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out, err := p.RunReplay(series)
		if err != nil {
			t.Fatal(err)
		}
		return p.Stats(), out
	}
	st1, out1 := run()
	st2, out2 := run()
	if !reflect.DeepEqual(st1, st2) {
		t.Fatalf("shed-load accounting diverged across identical runs:\n%+v\n%+v", st1, st2)
	}
	if !reflect.DeepEqual(out1, out2) {
		t.Fatal("emitted events diverged across identical runs")
	}
	if st1.Dropped == 0 && st1.Merged == 0 {
		t.Fatal("fixture never triggered backpressure")
	}
}

// TestMergePreservesTransitions pins the merge policy's core invariant:
// only consecutive same-state present samples coalesce, so a buffered state
// transition is never merged away — under total overload the detector still
// sees the healthy→degraded edge.
func TestMergePreservesTransitions(t *testing.T) {
	net, err := topology.ByName("B4")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		RingCapacity: 4, HighWatermark: 0.25,
		DrainPerTick: 1, FlushTicks: 1, ConfirmSamples: 1,
	}
	p, err := New(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(t0 int64, excess float64) optical.Sample {
		return optical.Sample{UnixS: t0, TxDBm: 3, RxDBm: 3 - 20 - excess, LossDB: 20 + excess, ExcessDB: excess, State: optical.Classify(excess)}
	}
	// One tick floods fiber 0 far past its ring: a healthy run, a degraded
	// run, and a cut run. Merging compresses each run; the edges survive.
	var arrivals []Arrival
	ts := int64(1000)
	for i := 0; i < 20; i++ {
		arrivals = append(arrivals, Arrival{Fiber: 0, Sample: mk(ts, 0)})
		ts++
	}
	for i := 0; i < 20; i++ {
		arrivals = append(arrivals, Arrival{Fiber: 0, Sample: mk(ts, 5)})
		ts++
	}
	for i := 0; i < 20; i++ {
		arrivals = append(arrivals, Arrival{Fiber: 0, Sample: mk(ts, 30)})
		ts++
	}
	if _, err := p.Tick(arrivals); err != nil {
		t.Fatal(err)
	}
	batches, err := p.Flush()
	if err != nil {
		t.Fatal(err)
	}
	var types []telemetry.EventType
	for _, b := range batches {
		for _, ev := range b.Events {
			types = append(types, ev.Type)
		}
	}
	want := []telemetry.EventType{telemetry.DegradationStart, telemetry.CutDetected}
	if !reflect.DeepEqual(types, want) {
		t.Fatalf("got event types %v, want %v", types, want)
	}
	st := p.Stats()
	if st.Merged == 0 {
		t.Fatal("flood produced no merges")
	}
	if st.Ingested != st.Emitted+st.Dropped+st.Merged {
		t.Fatalf("accounting leak: %+v", st)
	}
}

// TestMetricsMirrorStats pins that the ingest.* observability series agree
// exactly with the Stats snapshot — shed load is auditable from the
// registry alone — and that attaching a registry does not change results.
func TestMetricsMirrorStats(t *testing.T) {
	net, err := topology.ByName("B4")
	if err != nil {
		t.Fatal(err)
	}
	series := testSeries(t, net, 31)
	bare := overloadReplay(t, net, series, 2)

	reg := obs.NewRegistry()
	cfg := Config{
		RingCapacity: 8, HighWatermark: 0.5,
		DrainPerTick: 2, FlushTicks: 4, ConfirmSamples: 2,
		Metrics: reg,
	}
	p, err := New(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.RunReplay(series)
	if err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if !reflect.DeepEqual(st, bare.Stats()) {
		t.Fatal("attaching a metrics registry changed the pipeline's behaviour")
	}
	for name, want := range map[string]int64{
		"ingest.samples.ingested":    st.Ingested,
		"ingest.samples.emitted":     st.Emitted,
		"ingest.samples.dropped":     st.Dropped,
		"ingest.samples.merged":      st.Merged,
		"ingest.watermark.crossings": st.WatermarkCrossings,
		"ingest.ticks":               st.Ticks,
		"ingest.flushes":             st.Flushes,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	var nEvents int64
	for _, evs := range out {
		nEvents += int64(len(evs))
	}
	if got := reg.Counter("ingest.events.emitted").Value(); got != nEvents {
		t.Errorf("ingest.events.emitted = %d, want %d", got, nEvents)
	}
	// The queue-depth gauge exists and reads zero after the final Flush.
	if got := reg.Gauge("ingest.depth").Value(); got != 0 {
		t.Errorf("depth gauge = %v after Flush, want 0", got)
	}
}

// TestTickValidation pins the error paths: out-of-range fibers are rejected
// before any admission side effect, and duplicate fibers in a replay are
// rejected like telemetry.ProcessBatch rejects them.
func TestTickValidation(t *testing.T) {
	net, err := topology.ByName("B4")
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(net, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Tick([]Arrival{{Fiber: len(net.Fibers)}}); err == nil {
		t.Fatal("out-of-range fiber accepted")
	}
	if p.Stats().Ingested != 0 {
		t.Fatal("rejected tick left accounting side effects")
	}
	if _, err := p.RunReplay([]telemetry.FiberSeries{{Fiber: 0}, {Fiber: 0}}); err == nil {
		t.Fatal("duplicate fiber accepted in replay")
	}
	if _, err := New(nil, DefaultConfig()); err == nil {
		t.Fatal("nil network accepted")
	}
}

func TestConfigDefaultsResolved(t *testing.T) {
	net, err := topology.ByName("B4")
	if err != nil {
		t.Fatal(err)
	}
	// An all-zero config resolves every knob to its documented default.
	p, err := New(net, Config{})
	if err != nil {
		t.Fatal(err)
	}
	got := p.Config()
	want := Config{RingCapacity: 1024, HighWatermark: 0.75, FlushTicks: 1, ConfirmSamples: 1}
	if got != want {
		t.Fatalf("resolved config = %+v, want %+v", got, want)
	}
	// Out-of-range watermarks snap back to the default too.
	p, err = New(net, Config{HighWatermark: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if p.Config().HighWatermark != 0.75 {
		t.Fatalf("watermark = %v, want 0.75", p.Config().HighWatermark)
	}
}
