package telemetry

import (
	"reflect"
	"testing"

	"prete/internal/optical"
	"prete/internal/stats"
	"prete/internal/topology"
)

// batchSeries synthesizes one degradation episode per fiber with per-fiber
// shapes, including missing samples so Interpolate is on the tested path.
func batchSeries(t *testing.T, net *topology.Network, seed uint64) []FiberSeries {
	t.Helper()
	series := make([]FiberSeries, len(net.Fibers))
	for i := range net.Fibers {
		rng := stats.SubRNG(seed, uint64(i))
		sim := optical.NewFiberSim(net.Fibers[i].LengthKm, rng)
		prof := optical.DegradationProfile{
			DegreeDB:      4 + 4*rng.Float64(),
			GradientDB:    0.05,
			FluctAmpDB:    0.3,
			FluctPeriodS:  20,
			DurationS:     120,
			LeadsToCut:    i%3 == 0,
			CutDelayS:     90,
			RepairS:       30,
			OnsetUnixS:    1700000000 + int64(i)*7,
			MissingSample: 0.05,
		}
		samples, err := sim.EpisodeSeries(prof, 30)
		if err != nil {
			t.Fatalf("fiber %d: %v", i, err)
		}
		series[i] = FiberSeries{Fiber: i, Samples: samples}
	}
	return series
}

// serialReference runs the same pipeline as ProcessBatch with plain
// per-sample loops, as the ground truth.
func serialReference(t *testing.T, net *topology.Network, series []FiberSeries, confirm int) [][]FiberEvent {
	t.Helper()
	out := make([][]FiberEvent, len(series))
	for i, fs := range series {
		det := NewDetector(confirm)
		var evs []FiberEvent
		for _, s := range Interpolate(fs.Samples) {
			for _, ev := range det.Observe(s) {
				fe := FiberEvent{Event: ev}
				if len(ev.Window) > 0 {
					f := net.Fiber(topology.FiberID(fs.Fiber))
					feats, err := optical.ExtractFeatures(ev.Window, fs.Fiber, f.Region, f.Vendor, f.LengthKm)
					if err != nil {
						t.Fatalf("fiber %d: %v", fs.Fiber, err)
					}
					fe.Features = feats
					fe.HasFeatures = true
				}
				evs = append(evs, fe)
			}
		}
		out[i] = evs
	}
	return out
}

func TestProcessBatchMatchesSerialAtEveryParallelism(t *testing.T) {
	net, err := topology.ByName("B4")
	if err != nil {
		t.Fatal(err)
	}
	series := batchSeries(t, net, 7)
	want := serialReference(t, net, series, 2)
	got, err := ProcessBatch(net, series, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("batch output diverges from the per-sample pipeline")
	}
	// Sanity: the synthesized episodes actually produce events with features.
	var events, withFeatures int
	for _, evs := range want {
		events += len(evs)
		for _, ev := range evs {
			if ev.HasFeatures {
				withFeatures++
			}
		}
	}
	if events == 0 || withFeatures == 0 {
		t.Fatalf("degenerate fixture: %d events, %d with features", events, withFeatures)
	}
}

func TestProcessBatchRejectsOutOfRangeFiber(t *testing.T) {
	net, err := topology.ByName("B4")
	if err != nil {
		t.Fatal(err)
	}
	_, err = ProcessBatch(net, []FiberSeries{{Fiber: len(net.Fibers)}}, 2)
	if err == nil {
		t.Fatal("out-of-range fiber accepted")
	}
}

func TestObserveSeriesMatchesPerSampleObserve(t *testing.T) {
	rng := stats.NewRNG(3)
	sim := optical.NewFiberSim(80, rng)
	samples, err := sim.EpisodeSeries(optical.DegradationProfile{
		DegreeDB: 5, GradientDB: 0.02, DurationS: 60,
		LeadsToCut: true, CutDelayS: 40, RepairS: 20, OnsetUnixS: 1700000000,
	}, 10)
	if err != nil {
		t.Fatal(err)
	}
	batch := NewDetector(2).ObserveSeries(samples)
	var single []Event
	d := NewDetector(2)
	for _, s := range samples {
		single = append(single, d.Observe(s)...)
	}
	if !reflect.DeepEqual(batch, single) {
		t.Fatalf("ObserveSeries = %v, per-sample = %v", batch, single)
	}
}

// TestProcessBatchRejectsDuplicateFiber pins the duplicate-fiber contract:
// a fiber's detector is owned by one row, so a batch naming the same fiber
// twice is rejected — the same rule ingest.Pipeline.RunReplay enforces.
func TestProcessBatchRejectsDuplicateFiber(t *testing.T) {
	net, err := topology.ByName("B4")
	if err != nil {
		t.Fatal(err)
	}
	sim := optical.NewFiberSim(100, stats.NewRNG(5))
	samples := sim.HealthySeries(1700000000, 10)
	_, err = ProcessBatch(net, []FiberSeries{
		{Fiber: 3, Samples: samples},
		{Fiber: 3, Samples: samples},
	}, 2)
	if err == nil {
		t.Fatal("duplicate fiber accepted")
	}
}
