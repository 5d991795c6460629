package telemetry

import (
	"testing"

	"prete/internal/optical"
	"prete/internal/stats"
)

func sampleWithExcess(t int64, excess float64) optical.Sample {
	return optical.Sample{
		UnixS: t, TxDBm: optical.TxPowerDBm,
		RxDBm:  optical.TxPowerDBm - 20 - excess,
		LossDB: 20 + excess, ExcessDB: excess,
		State: optical.Classify(excess),
	}
}

func feed(d *Detector, excesses []float64) []Event {
	var all []Event
	for i, e := range excesses {
		all = append(all, d.Observe(sampleWithExcess(int64(i), e))...)
	}
	return all
}

func TestDetectorDegradationThenCut(t *testing.T) {
	d := NewDetector(1)
	events := feed(d, []float64{0, 0, 5, 5, 5, 30, 30, 0})
	types := []EventType{DegradationStart, CutDetected, Repaired}
	if len(events) != len(types) {
		t.Fatalf("events = %v", events)
	}
	for i, e := range events {
		if e.Type != types[i] {
			t.Fatalf("event %d = %v, want %v", i, e.Type, types[i])
		}
	}
	// The cut event must carry the degraded window for feature extraction.
	if len(events[1].Window) < 3 {
		t.Fatalf("cut window has %d samples, want the degraded episode", len(events[1].Window))
	}
}

func TestDetectorAbruptCut(t *testing.T) {
	d := NewDetector(1)
	events := feed(d, []float64{0, 0, 35})
	if len(events) != 1 || events[0].Type != CutDetected {
		t.Fatalf("events = %v", events)
	}
	if len(events[0].Window) != 0 {
		t.Fatal("abrupt cut should have an empty degradation window")
	}
}

func TestDetectorDegradationRecovers(t *testing.T) {
	d := NewDetector(1)
	events := feed(d, []float64{0, 4, 4, 4, 0, 0})
	if len(events) != 2 || events[0].Type != DegradationStart || events[1].Type != DegradationEnd {
		t.Fatalf("events = %v", events)
	}
	if len(events[1].Window) < 3 {
		t.Fatalf("end window = %d samples", len(events[1].Window))
	}
	if d.state != optical.Healthy {
		t.Fatalf("state = %v", d.state)
	}
}

func TestDetectorConfirmationSuppressesNoise(t *testing.T) {
	d := NewDetector(2)
	// one-sample blip must not fire
	events := feed(d, []float64{0, 5, 0, 0})
	if len(events) != 0 {
		t.Fatalf("blip produced events: %v", events)
	}
	// two consecutive samples do fire
	events = feed(d, []float64{5, 5})
	if len(events) != 1 || events[0].Type != DegradationStart {
		t.Fatalf("events = %v", events)
	}
}

func TestDetectorCutThenPartialRepair(t *testing.T) {
	d := NewDetector(1)
	events := feed(d, []float64{0, 30, 30, 5, 5, 0})
	want := []EventType{CutDetected, Repaired, DegradationStart, DegradationEnd}
	if len(events) != len(want) {
		t.Fatalf("events = %v", events)
	}
	for i, e := range events {
		if e.Type != want[i] {
			t.Fatalf("event %d = %v, want %v", i, e.Type, want[i])
		}
	}
}

func TestInterpolateMidGap(t *testing.T) {
	samples := []optical.Sample{
		sampleWithExcess(0, 0),
		{UnixS: 1, Missing: true, TxDBm: optical.TxPowerDBm, LossDB: 20, ExcessDB: 0},
		{UnixS: 2, Missing: true, TxDBm: optical.TxPowerDBm, LossDB: 20, ExcessDB: 0},
		sampleWithExcess(3, 6),
	}
	out := Interpolate(samples)
	if out[1].Missing || out[2].Missing {
		t.Fatal("gap not filled")
	}
	// linear ramp 20 -> 26: t=1 -> 22, t=2 -> 24
	if diff := out[1].LossDB - 22; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("t=1 loss = %v, want 22", out[1].LossDB)
	}
	if diff := out[2].LossDB - 24; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("t=2 loss = %v, want 24", out[2].LossDB)
	}
	// original untouched
	if !samples[1].Missing {
		t.Fatal("Interpolate mutated its input")
	}
	// states refreshed
	if out[2].State != optical.Degraded {
		t.Fatalf("t=2 state = %v, want degraded (excess 4dB)", out[2].State)
	}
}

func TestInterpolateEdges(t *testing.T) {
	samples := []optical.Sample{
		{UnixS: 0, Missing: true, TxDBm: 3, LossDB: 0, ExcessDB: 0},
		sampleWithExcess(1, 0),
		{UnixS: 2, Missing: true, TxDBm: 3, LossDB: 0, ExcessDB: 0},
	}
	out := Interpolate(samples)
	if out[0].Missing || out[2].Missing {
		t.Fatal("edge gaps not filled")
	}
	if out[0].LossDB != out[1].LossDB || out[2].LossDB != out[1].LossDB {
		t.Fatal("edge gaps should copy the nearest sample")
	}
}

func TestInterpolateAllMissing(t *testing.T) {
	samples := []optical.Sample{
		{UnixS: 0, Missing: true},
		{UnixS: 1, Missing: true},
	}
	out := Interpolate(samples) // must not panic; nothing to anchor on
	if len(out) != 2 {
		t.Fatal("length changed")
	}
}

func TestDownsample(t *testing.T) {
	f := optical.NewFiberSim(100, stats.NewRNG(1))
	s := f.HealthySeries(0, 600)
	out, err := Downsample(s, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 10 {
		t.Fatalf("60s downsample of 600s = %d samples, want 10", len(out))
	}
	if _, err := Downsample(s, 0); err == nil {
		t.Fatal("granularity 0 accepted")
	}
	same, err := Downsample(s, 1)
	if err != nil || len(same) != len(s) {
		t.Fatal("1s downsample should be identity")
	}
}

// TestDownsampleMissesEphemeralDegradation reproduces §3.1's core
// observation: a short degradation visible at 1 s granularity disappears at
// 3-minute granularity.
func TestDownsampleMissesEphemeralDegradation(t *testing.T) {
	f := optical.NewFiberSim(100, stats.NewRNG(2))
	p := optical.DegradationProfile{
		DegreeDB: 6, GradientDB: 0.1, DurationS: 8, // ephemeral: 8s (Fig 4a median <10s)
		LeadsToCut: true, CutDelayS: 8, RepairS: 30, OnsetUnixS: 100,
	}
	series, err := f.EpisodeSeries(p, 95)
	if err != nil {
		t.Fatal(err)
	}
	countDegraded := func(s []optical.Sample) int {
		n := 0
		for _, smp := range s {
			if smp.State == optical.Degraded {
				n++
			}
		}
		return n
	}
	if countDegraded(series) == 0 {
		t.Fatal("1s series must contain the degradation")
	}
	coarse, err := Downsample(series, 180)
	if err != nil {
		t.Fatal(err)
	}
	if countDegraded(coarse) != 0 {
		t.Fatal("3-minute sampling should miss the 8s degradation for this alignment")
	}
}

func TestDetectorWindowGrowsDuringDegradation(t *testing.T) {
	d := NewDetector(1)
	feed(d, []float64{0, 5})
	events := feed(d, []float64{5, 5, 5, 30})
	if len(events) != 1 {
		t.Fatalf("events = %v", events)
	}
	if got := len(events[0].Window); got < 4 {
		t.Fatalf("window = %d samples, want the whole episode", got)
	}
}

// TestDetectorWindowBounded pins the episode window's bound: a degradation
// standing for twice maxWindow samples ends with a window of the episode's
// first maxWindow samples, not the whole episode.
func TestDetectorWindowBounded(t *testing.T) {
	d := NewDetector(1)
	excesses := []float64{0}
	for i := 0; i < 2*maxWindow; i++ {
		excesses = append(excesses, 5)
	}
	events := feed(d, append(excesses, 0))
	if len(events) != 2 || events[1].Type != DegradationEnd {
		t.Fatalf("events = %v", events)
	}
	w := events[1].Window
	if len(w) > maxWindow {
		t.Fatalf("end window = %d samples, want at most %d", len(w), maxWindow)
	}
	if len(w) != maxWindow || w[0].UnixS != 1 {
		t.Fatalf("end window = %d samples from t=%d, want the first %d from the onset", len(w), w[0].UnixS, maxWindow)
	}
}
