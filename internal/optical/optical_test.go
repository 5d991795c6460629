package optical

import (
	"math"
	"testing"
	"testing/quick"

	"prete/internal/stats"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		excess float64
		want   State
	}{
		{0, Healthy}, {2.9, Healthy}, {3, Degraded}, {9.9, Degraded},
		{10, Cut}, {40, Cut}, {-1, Healthy},
	}
	for _, c := range cases {
		if got := Classify(c.excess); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.excess, got, c.want)
		}
	}
}

func TestHealthySeries(t *testing.T) {
	f := NewFiberSim(100, stats.NewRNG(1))
	s := f.HealthySeries(1000, 500)
	if len(s) != 500 {
		t.Fatalf("len = %d", len(s))
	}
	for i, smp := range s {
		if smp.State != Healthy {
			t.Fatalf("sample %d state %v", i, smp.State)
		}
		if math.Abs(smp.ExcessDB) > 5*NoiseSigmaDB {
			t.Fatalf("sample %d excess %v beyond noise", i, smp.ExcessDB)
		}
		if math.Abs(smp.LossDB-(smp.TxDBm-smp.RxDBm)) > 1e-9 {
			t.Fatalf("loss != Tx - Rx at %d", i)
		}
		if smp.UnixS != 1000+int64(i) {
			t.Fatalf("timestamp %d at index %d", smp.UnixS, i)
		}
	}
}

func TestBaselineScalesWithLength(t *testing.T) {
	short := NewFiberSim(100, stats.NewRNG(1))
	long := NewFiberSim(1000, stats.NewRNG(1))
	if short.BaselineDB() >= long.BaselineDB() {
		t.Fatal("longer fiber should have larger baseline loss")
	}
}

func TestEpisodeSeriesDegradationOnly(t *testing.T) {
	f := NewFiberSim(200, stats.NewRNG(2))
	p := DegradationProfile{
		DegreeDB: 6, GradientDB: 0.2, FluctAmpDB: 0.5, FluctPeriodS: 10,
		DurationS: 60, OnsetUnixS: 5000,
	}
	s, err := f.EpisodeSeries(p, 30)
	if err != nil {
		t.Fatal(err)
	}
	var healthy, degraded, cut int
	for _, smp := range s {
		switch smp.State {
		case Healthy:
			healthy++
		case Degraded:
			degraded++
		case Cut:
			cut++
		}
	}
	if degraded != 60 {
		t.Errorf("degraded seconds = %d, want 60", degraded)
	}
	if cut != 0 {
		t.Errorf("cut seconds = %d, want 0", cut)
	}
	if healthy < 30 {
		t.Errorf("healthy seconds = %d, want >= 30 lead-in", healthy)
	}
}

func TestEpisodeSeriesWithCut(t *testing.T) {
	f := NewFiberSim(200, stats.NewRNG(3))
	p := DegradationProfile{
		DegreeDB: 7, GradientDB: 0.3, DurationS: 45,
		LeadsToCut: true, CutDelayS: 45, RepairS: 120, OnsetUnixS: 0,
	}
	s, err := f.EpisodeSeries(p, 10)
	if err != nil {
		t.Fatal(err)
	}
	var cutSeconds int
	lastState := Healthy
	sawDegradedBeforeCut := false
	for _, smp := range s {
		if smp.State == Cut {
			if lastState == Degraded {
				sawDegradedBeforeCut = true
			}
			cutSeconds++
		}
		if smp.State != lastState {
			lastState = smp.State
		}
	}
	if cutSeconds != 120 {
		t.Errorf("cut seconds = %d, want 120 (repair time)", cutSeconds)
	}
	if !sawDegradedBeforeCut {
		t.Error("cut was not preceded by a degraded state (the §3.1 signature)")
	}
	if s[len(s)-1].State != Healthy {
		t.Error("series should end repaired")
	}
}

func TestEpisodeValidation(t *testing.T) {
	f := NewFiberSim(100, stats.NewRNG(4))
	bad := []DegradationProfile{
		{DegreeDB: 1, DurationS: 10},                                 // below degrade threshold
		{DegreeDB: 15, DurationS: 10},                                // at cut level
		{DegreeDB: 5, DurationS: 0},                                  // no duration
		{DegreeDB: 5, DurationS: 10, LeadsToCut: true, CutDelayS: 0}, // cut with no delay
	}
	for i, p := range bad {
		if _, err := f.EpisodeSeries(p, 0); err == nil {
			t.Errorf("profile %d accepted: %+v", i, p)
		}
	}
}

func TestMissingSamples(t *testing.T) {
	f := NewFiberSim(100, stats.NewRNG(5))
	p := DegradationProfile{
		DegreeDB: 5, GradientDB: 0.1, DurationS: 400,
		OnsetUnixS: 0, MissingSample: 0.2,
	}
	s, err := f.EpisodeSeries(p, 100)
	if err != nil {
		t.Fatal(err)
	}
	missing := 0
	for _, smp := range s {
		if smp.Missing {
			missing++
		}
	}
	if missing == 0 {
		t.Fatal("MissingSample=0.2 produced no gaps")
	}
	if frac := float64(missing) / float64(len(s)); frac > 0.35 {
		t.Fatalf("missing fraction %v implausibly high", frac)
	}
}

func TestExtractFeatures(t *testing.T) {
	f := NewFiberSim(300, stats.NewRNG(6))
	p := DegradationProfile{
		DegreeDB: 8, GradientDB: 0.4, FluctAmpDB: 1.0, FluctPeriodS: 8,
		DurationS: 120, OnsetUnixS: 43200, // 12:00 UTC
	}
	s, err := f.EpisodeSeries(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	var window []Sample
	for _, smp := range s {
		if smp.State == Degraded {
			window = append(window, smp)
		}
	}
	feats, err := ExtractFeatures(window, 7, "EU", "vendorA", 300)
	if err != nil {
		t.Fatal(err)
	}
	if feats.HourOfDay != 12 {
		t.Errorf("hour = %d, want 12", feats.HourOfDay)
	}
	if feats.DegreeDB < 4 || feats.DegreeDB > 10 {
		t.Errorf("degree = %v, want within the degraded band", feats.DegreeDB)
	}
	if feats.GradientDB <= 0 {
		t.Errorf("gradient = %v, want > 0", feats.GradientDB)
	}
	if feats.Fluctuation <= 0 {
		t.Errorf("fluctuation = %v, want > 0 for a strongly oscillating profile", feats.Fluctuation)
	}
	if feats.FiberID != 7 || feats.Region != "EU" || feats.LengthKm != 300 {
		t.Errorf("intrinsic features lost: %+v", feats)
	}
}

func TestExtractFeaturesEmpty(t *testing.T) {
	if _, err := ExtractFeatures(nil, 0, "", "", 0); err == nil {
		t.Fatal("empty window accepted")
	}
}

func TestFeatureSeparation(t *testing.T) {
	// A calm profile must yield lower gradient/fluctuation features than a
	// turbulent one — this separation is what the NN learns from.
	f := NewFiberSim(100, stats.NewRNG(7))
	calm := DegradationProfile{DegreeDB: 4, GradientDB: 0.02, DurationS: 200, OnsetUnixS: 0}
	wild := DegradationProfile{DegreeDB: 9, GradientDB: 0.8, FluctAmpDB: 0.6, FluctPeriodS: 4, DurationS: 200, OnsetUnixS: 0}
	extract := func(p DegradationProfile) Features {
		s, err := f.EpisodeSeries(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		var w []Sample
		for _, smp := range s {
			if smp.State == Degraded {
				w = append(w, smp)
			}
		}
		feats, err := ExtractFeatures(w, 0, "r", "v", 100)
		if err != nil {
			t.Fatal(err)
		}
		return feats
	}
	fc, fw := extract(calm), extract(wild)
	if fc.GradientDB >= fw.GradientDB {
		t.Errorf("gradient separation lost: calm %v vs wild %v", fc.GradientDB, fw.GradientDB)
	}
	if fc.DegreeDB >= fw.DegreeDB {
		t.Errorf("degree separation lost: calm %v vs wild %v", fc.DegreeDB, fw.DegreeDB)
	}
}

func TestTestbedScript(t *testing.T) {
	s := TestbedScript()
	cases := []struct {
		t    int
		want State
	}{
		{0, Healthy}, {64, Healthy}, {65, Degraded}, {109, Degraded},
		{110, Cut}, {399, Cut}, {400, Healthy},
	}
	for _, c := range cases {
		if got := Classify(s.At(c.t)); got != c.want {
			t.Errorf("state at t=%d is %v, want %v", c.t, got, c.want)
		}
	}
}

func TestScriptReplay(t *testing.T) {
	f := NewFiberSim(100, stats.NewRNG(8))
	s := TestbedScript().Replay(f, 0)
	if len(s) != 401 {
		t.Fatalf("replay length = %d", len(s))
	}
	if s[70].State != Degraded {
		t.Errorf("t=70 state %v, want degraded", s[70].State)
	}
	if s[200].State != Cut {
		t.Errorf("t=200 state %v, want cut", s[200].State)
	}
}

// Property: episode series timestamps are strictly increasing by 1 second.
func TestQuickEpisodeTimestamps(t *testing.T) {
	f := func(seed uint64, degRaw, durRaw uint8) bool {
		fs := NewFiberSim(100, stats.NewRNG(seed))
		p := DegradationProfile{
			DegreeDB:   3.5 + float64(degRaw%60)/10, // 3.5 - 9.4
			DurationS:  int(durRaw%100) + 1,
			GradientDB: 0.1,
			OnsetUnixS: 1000,
		}
		s, err := fs.EpisodeSeries(p, 5)
		if err != nil {
			return false
		}
		for i := 1; i < len(s); i++ {
			if s[i].UnixS != s[i-1].UnixS+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
