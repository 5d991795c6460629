package prete

// TestIngestSustainedSpeedup: on B4 scale (19 fibers at one sample per
// second each) the internal/ingest pipeline, driven tick by tick, must
// sustain at least 10x the effective sample rate of the equivalent
// ProcessBatch replay — a batch pipeline has no detector state between
// calls, so replaying at production rate means re-processing the
// accumulated epoch window on every tick — and after every tick hold only
// trailing missing samples. The benchmark's ingest.samples_per_s and
// ingest.tick_p99_us (bench/) report the streaming path's own numbers.

import (
	"testing"
	"time"

	"prete/internal/ingest"
	"prete/internal/optical"
	"prete/internal/stats"
	"prete/internal/telemetry"
	"prete/internal/topology"
)

// ingestEpochTicks is the TE-period epoch length (seconds at 1 Hz) both
// the streaming run and the replay baseline cover.
const ingestEpochTicks = 120

// b4IngestSeries synthesizes one epoch of per-second telemetry for every
// B4 fiber: degradation episodes with missing samples, a third of them
// leading to cuts.
func b4IngestSeries(tb testing.TB, ticks int) (*topology.Network, []telemetry.FiberSeries) {
	tb.Helper()
	net, err := topology.B4()
	if err != nil {
		tb.Fatal(err)
	}
	series := make([]telemetry.FiberSeries, len(net.Fibers))
	for i := range net.Fibers {
		rng := stats.SubRNG(11, uint64(i))
		fsim := optical.NewFiberSim(net.Fibers[i].LengthKm, rng)
		samples, err := fsim.EpisodeSeries(optical.DegradationProfile{
			DegreeDB: 4 + 4*rng.Float64(), GradientDB: 0.05,
			FluctAmpDB: 0.3, FluctPeriodS: 20,
			DurationS: ticks / 2, LeadsToCut: i%3 == 0, CutDelayS: ticks / 3, RepairS: 20,
			OnsetUnixS: 1700000000 + int64(i)*13, MissingSample: 0.05,
		}, ticks/4)
		if err != nil {
			tb.Fatal(err)
		}
		if len(samples) > ticks {
			samples = samples[:ticks]
		}
		series[i] = telemetry.FiberSeries{Fiber: i, Samples: samples}
	}
	return net, series
}

// runIngestEpoch replays one epoch through a fresh pipeline — one sample
// per fiber per tick — and returns the total samples fed and the final
// stats. After every tick the pipeline may hold only each fiber's trailing
// missing samples (Ingested - Emitted), awaiting their interpolation
// neighbour.
func runIngestEpoch(tb testing.TB, net *topology.Network, series []telemetry.FiberSeries) (int, ingest.Stats) {
	tb.Helper()
	p, err := ingest.New(net, ingest.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	fed := 0
	trailing := make([]int64, len(series)) // each fiber's trailing missing samples so far
	arrivals := make([]ingest.Arrival, 0, len(series))
	for tick := 0; ; tick++ {
		arrivals = arrivals[:0]
		var held int64
		for i, fs := range series {
			if tick < len(fs.Samples) {
				arrivals = append(arrivals, ingest.Arrival{Fiber: fs.Fiber, Sample: fs.Samples[tick]})
				trailing[i]++
				if !fs.Samples[tick].Missing {
					trailing[i] = 0
				}
			}
			held += trailing[i]
		}
		if len(arrivals) == 0 {
			break
		}
		fed += len(arrivals)
		if _, err := p.Tick(arrivals); err != nil {
			tb.Fatal(err)
		}
		if st := p.Stats(); st.Ingested-st.Emitted != held {
			tb.Fatalf("tick %d: %d samples held, want only the %d trailing missing ones", tick, st.Ingested-st.Emitted, held)
		}
	}
	if _, err := p.Flush(); err != nil {
		tb.Fatal(err)
	}
	return fed, p.Stats()
}

// epochReplayBaseline runs the equivalent batch replay once: at every tick
// the accumulated window is re-processed through ProcessBatch (a fresh
// batch call holds no detector state, so this is what replaying the stream
// through the batch API at production rate costs). Returns the number of
// unique samples delivered — the same count the streaming run feeds.
func epochReplayBaseline(tb testing.TB, net *topology.Network, series []telemetry.FiberSeries) int {
	tb.Helper()
	fed := 0
	window := make([]telemetry.FiberSeries, len(series))
	for i, fs := range series {
		window[i] = telemetry.FiberSeries{Fiber: fs.Fiber}
	}
	for tick := 0; ; tick++ {
		grew := false
		for i, fs := range series {
			if tick < len(fs.Samples) {
				window[i].Samples = fs.Samples[:tick+1]
				fed++
				grew = true
			}
		}
		if !grew {
			break
		}
		if _, err := telemetry.ProcessBatch(net, window, 2); err != nil {
			tb.Fatal(err)
		}
	}
	return fed
}

// TestIngestSustainedSpeedup pins the PR's acceptance criterion: on
// B4-scale input the streaming pipeline sustains at least 10x the
// equivalent ProcessBatch replay rate, holding only trailing missing
// samples between ticks (checked inside runIngestEpoch on every tick).
func TestIngestSustainedSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive throughput comparison")
	}
	// Two epochs of input: the baseline's re-parse cost grows quadratically
	// with the window, so a longer run both reflects sustained operation and
	// keeps the measured ratio out of timer noise.
	net, series := b4IngestSeries(t, 2*ingestEpochTicks)
	best := func(run func() int) float64 {
		run() // warm-up: heap growth and cache fills stay out of the timings
		rate := 0.0
		for rep := 0; rep < 5; rep++ {
			t0 := time.Now()
			fed := run()
			if r := float64(fed) / time.Since(t0).Seconds(); r > rate {
				rate = r
			}
		}
		return rate
	}
	streamRate := best(func() int {
		fed, st := runIngestEpoch(t, net, series)
		if st.Ingested != st.Emitted {
			t.Fatalf("samples still held after Flush: %+v", st)
		}
		return fed
	})
	replayRate := best(func() int { return epochReplayBaseline(t, net, series) })
	if streamRate < 10*replayRate {
		t.Fatalf("streaming ingest sustains %.0f samples/s, want >= 10x the %.0f samples/s replay baseline",
			streamRate, replayRate)
	}
	t.Logf("streaming %.0f samples/s vs replay %.0f samples/s (%.1fx)", streamRate, replayRate, streamRate/replayRate)
}
