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

// streamChunked streams each fiber's series perTick samples at a time,
// the fibers interleaved sample by sample in descending order (so arrival
// order is never fiber order), then flushes. It checks the Tick contract on
// the way: each tick's batches come in ascending fiber order, and after a
// tick only trailing missing samples are held. The rows align with series
// like telemetry.ProcessBatch's.
func streamChunked(tb testing.TB, p *Pipeline, series []telemetry.FiberSeries, perTick int) ([][]telemetry.FiberEvent, error) {
	tb.Helper()
	out := make([][]telemetry.FiberEvent, len(series))
	row := make(map[int]int, len(series))
	maxLen := 0
	for i, fs := range series {
		out[i] = []telemetry.FiberEvent{}
		row[fs.Fiber] = i
		maxLen = max(maxLen, len(fs.Samples))
	}
	collect := func(batches []FiberEvents) {
		for i, b := range batches {
			if i > 0 && b.Fiber <= batches[i-1].Fiber {
				tb.Fatalf("perTick=%d: fiber %d's batch follows fiber %d's", perTick, b.Fiber, batches[i-1].Fiber)
			}
			out[row[b.Fiber]] = append(out[row[b.Fiber]], b.Events...)
		}
	}
	for t := 0; t < maxLen; t += perTick {
		var arrivals []Arrival
		for k := t; k < t+perTick && k < maxLen; k++ {
			for i := len(series) - 1; i >= 0; i-- {
				if k < len(series[i].Samples) {
					arrivals = append(arrivals, Arrival{Fiber: series[i].Fiber, Sample: series[i].Samples[k]})
				}
			}
		}
		batches, err := p.Tick(arrivals)
		if err != nil {
			return nil, err
		}
		collect(batches)
		var held int64
		for _, fs := range series {
			for k := min(t+perTick, len(fs.Samples)) - 1; k >= 0 && fs.Samples[k].Missing; k-- {
				held++
			}
		}
		if st := p.Stats(); st.Ingested-st.Emitted != held {
			tb.Fatalf("perTick=%d, tick %d: %d samples held, want the %d trailing missing ones", perTick, t/perTick, st.Ingested-st.Emitted, held)
		}
	}
	batches, err := p.Flush()
	if err != nil {
		return nil, err
	}
	collect(batches)
	if st := p.Stats(); st.Ingested != st.Emitted || st.Dropped != 0 || st.Merged != 0 {
		tb.Fatalf("perTick=%d: accounting after Flush: %+v", perTick, st)
	}
	return out, nil
}

// TestReplayMatchesProcessBatch pins the pipeline's contract: however the
// arrivals are chunked into ticks, the streaming output equals the batch
// replay byte for byte.
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
	var events, maxLen int
	for i, evs := range want {
		events += len(evs)
		maxLen = max(maxLen, len(series[i].Samples))
	}
	if events == 0 {
		t.Fatal("degenerate fixture: batch replay produced no events")
	}
	for _, perTick := range []int{1, 7, 50, maxLen} {
		p, err := New(net, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		got, err := streamChunked(t, p, series, perTick)
		if err != nil {
			t.Fatalf("perTick=%d: %v", perTick, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("perTick=%d: stream output diverges from ProcessBatch", perTick)
		}
	}
	p, err := New(net, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.RunReplay(series)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("RunReplay diverges from ProcessBatch")
	}
}

// TestMetricsMirrorStats pins that the ingest.* observability series agree
// exactly with the Stats snapshot and that attaching a registry does not
// change results.
func TestMetricsMirrorStats(t *testing.T) {
	net, err := topology.ByName("B4")
	if err != nil {
		t.Fatal(err)
	}
	series := testSeries(t, net, 31)
	bare, err := New(net, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := streamChunked(t, bare, series, 7)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	cfg := DefaultConfig()
	cfg.Metrics = reg
	p, err := New(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := streamChunked(t, p, series, 7)
	if err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st != bare.Stats() || !reflect.DeepEqual(out, want) {
		t.Fatal("attaching a metrics registry changed the pipeline's behaviour")
	}
	for name, want := range map[string]int64{
		"ingest.samples.ingested": st.Ingested,
		"ingest.samples.emitted":  st.Emitted,
		"ingest.ticks":            st.Ticks,
		"ingest.flushes":          st.Flushes,
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
	if got := reg.Timer("ingest.tick.latency").Count(); got != st.Ticks {
		t.Errorf("ingest.tick.latency count = %d, want %d", got, st.Ticks)
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

// TestConfigDefaultsResolved pins the ConfirmSamples clamp: an all-zero
// config confirms every transition after one sample, like a detector built
// with ConfirmSamples 1.
func TestConfigDefaultsResolved(t *testing.T) {
	net, err := topology.ByName("B4")
	if err != nil {
		t.Fatal(err)
	}
	series := testSeries(t, net, 11)
	want, err := telemetry.ProcessBatch(net, series, 1)
	if err != nil {
		t.Fatal(err)
	}
	if two, err := telemetry.ProcessBatch(net, series, 2); err != nil || reflect.DeepEqual(two, want) {
		t.Fatalf("degenerate fixture: confirmation count does not change the events (err %v)", err)
	}
	p, err := New(net, Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.RunReplay(series)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("a zero ConfirmSamples does not behave as 1")
	}
}
