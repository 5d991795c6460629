package scenario

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"prete/internal/stats"
	"prete/internal/topology"
)

func TestEnumerateSmall(t *testing.T) {
	// The §2.2 illustrative network: p = 0.005, 0.009, 0.001.
	probs := []float64{0.005, 0.009, 0.001}
	set, err := Enumerate(probs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// empty + 3 singles + 3 doubles = 7
	if len(set.Scenarios) != 7 {
		t.Fatalf("scenarios = %d, want 7", len(set.Scenarios))
	}
	// empty scenario first with probability prod(1-p)
	if len(set.Scenarios[0].Cut) != 0 {
		t.Fatal("first scenario should be the empty one")
	}
	want := (1 - 0.005) * (1 - 0.009) * (1 - 0.001)
	if math.Abs(set.Scenarios[0].Prob-want) > 1e-12 {
		t.Fatalf("empty prob = %v, want %v", set.Scenarios[0].Prob, want)
	}
	// single failure of fiber 1: p1 * (1-p0) * (1-p2)
	for _, s := range set.Scenarios {
		if len(s.Cut) == 1 && s.Cut[0] == 1 {
			want := 0.009 * (1 - 0.005) * (1 - 0.001)
			if math.Abs(s.Prob-want) > 1e-12 {
				t.Fatalf("single prob = %v, want %v", s.Prob, want)
			}
		}
	}
	if covered(set) <= 0.999 {
		t.Fatalf("covered mass = %v", covered(set))
	}
}

func TestEnumerateCutoffAndCap(t *testing.T) {
	probs := make([]float64, 30)
	for i := range probs {
		probs[i] = 0.001
	}
	set, err := Enumerate(probs, Options{Cutoff: 1e-5, MaxFailures: 2, MaxScenarios: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Scenarios) != 10 {
		t.Fatalf("cap not applied: %d", len(set.Scenarios))
	}
	if len(set.Scenarios[0].Cut) != 0 {
		t.Fatal("empty scenario evicted by the cap")
	}
	// cutoff: doubles have prob ~1e-6 < 1e-5, so none survive
	for _, s := range set.Scenarios {
		if len(s.Cut) > 1 {
			t.Fatalf("double scenario with prob %v survived a 1e-5 cutoff", s.Prob)
		}
	}
}

// TestEnumerateCapMayEvictEmpty pins what MaxScenarios does to the empty
// scenario: it is kept, and moved first, only when it is among the
// MaxScenarios most probable; otherwise the cap evicts it like any other.
func TestEnumerateCapMayEvictEmpty(t *testing.T) {
	for _, tc := range []struct {
		probs     []float64
		max       int
		wantEmpty bool
	}{
		{[]float64{0.9, 0.9, 0.9}, 2, false},          // two doubles outweigh it
		{[]float64{1, 0.001, 0.001, 0.001}, 2, false}, // a certain cut leaves it probability 0
		{[]float64{0.6, 0.6, 0.01}, 4, true},          // fourth most probable of seven, moved first
	} {
		set, err := Enumerate(tc.probs, Options{Cutoff: 0, MaxFailures: 2, MaxScenarios: tc.max})
		if err != nil {
			t.Fatal(err)
		}
		if len(set.Scenarios) != tc.max {
			t.Fatalf("%v cap %d: %d scenarios", tc.probs, tc.max, len(set.Scenarios))
		}
		empty := -1
		for i, s := range set.Scenarios {
			if len(s.Cut) == 0 {
				empty = i
			}
		}
		if tc.wantEmpty && empty != 0 {
			t.Errorf("%v cap %d: empty scenario at %d, want first", tc.probs, tc.max, empty)
		}
		if !tc.wantEmpty && empty >= 0 {
			t.Errorf("%v cap %d: empty scenario kept at %d, want evicted", tc.probs, tc.max, empty)
		}
	}
}

func TestEnumerateValidation(t *testing.T) {
	if _, err := Enumerate([]float64{-0.1}, DefaultOptions()); err == nil {
		t.Error("negative probability accepted")
	}
	if _, err := Enumerate([]float64{1.5}, DefaultOptions()); err == nil {
		t.Error("probability > 1 accepted")
	}
	if _, err := Enumerate([]float64{math.NaN()}, DefaultOptions()); err == nil {
		t.Error("NaN accepted")
	}
}

func TestEnumerateCertainFailure(t *testing.T) {
	// p = 1 makes every scenario without that fiber impossible, and the
	// scenarios WITH it must carry the full probability mass — PreTE's
	// evaluation conditions on certain cuts, so this must not degenerate.
	set, err := Enumerate([]float64{1, 0.01}, Options{Cutoff: 0, MaxFailures: 2, MaxScenarios: 100})
	if err != nil {
		t.Fatal(err)
	}
	var mass float64
	for _, s := range set.Scenarios {
		has := false
		for _, f := range s.Cut {
			if f == 0 {
				has = true
			}
		}
		if !has && s.Prob > 0 {
			t.Fatalf("scenario %v has positive probability despite fiber 0 being certainly cut", s)
		}
		if has {
			mass += s.Prob
		}
	}
	if math.Abs(mass-1) > 1e-12 {
		t.Fatalf("scenarios containing the certain cut carry mass %v, want 1", mass)
	}
	// {0}: 1 * (1-0.01) = 0.99; {0,1}: 1 * 0.01
	if math.Abs(covered(set)-1) > 1e-12 {
		t.Fatalf("covered = %v, want 1", covered(set))
	}
}

func TestScenarioCutSet(t *testing.T) {
	a := Scenario{Cut: []topology.FiberID{1, 2}}
	c := Scenario{Cut: []topology.FiberID{1, 3}}
	cs := a.CutSet()
	if !cs[1] || !cs[2] || cs[3] {
		t.Errorf("cut set = %v", cs)
	}
	// CutInto reuses a buffer that held a wider set and leaves none of it.
	buf := topology.FiberSetOf(3, 70, 130)
	got := c.CutInto(buf)
	var ids []topology.FiberID
	got.Each(func(f topology.FiberID) { ids = append(ids, f) })
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 3 || &got[0] != &buf[0] {
		t.Errorf("CutInto = %v in a fresh array %v, want [1 3] in the buffer", ids, &got[0] != &buf[0])
	}
}

func TestCalibrated(t *testing.T) {
	pi := []float64{0.01, 0.02, 0.03}
	degraded := map[topology.FiberID]float64{1: 0.45}
	out, err := Calibrated(pi, degraded, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	// Theorem 4.1: non-degraded fibers drop to (1-alpha) p_i.
	if math.Abs(out[0]-0.75*0.01) > 1e-12 || math.Abs(out[2]-0.75*0.03) > 1e-12 {
		t.Fatalf("non-degraded calibration wrong: %v", out)
	}
	// Degraded fiber uses the NN output.
	if out[1] != 0.45 {
		t.Fatalf("degraded fiber p = %v, want 0.45", out[1])
	}
}

func TestCalibratedDegenerateAlpha(t *testing.T) {
	pi := []float64{0.01}
	// alpha = 0: degenerates to the static model (PreTE -> TeaVar, §4.1.2).
	out, err := Calibrated(pi, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 0.01 {
		t.Fatalf("alpha=0 should leave p_i unchanged: %v", out[0])
	}
}

func TestCalibratedValidation(t *testing.T) {
	pi := []float64{0.01}
	if _, err := Calibrated(pi, nil, -0.1); err == nil {
		t.Error("negative alpha accepted")
	}
	if _, err := Calibrated(pi, nil, 1); err == nil {
		t.Error("alpha = 1 accepted")
	}
	if _, err := Calibrated(pi, map[topology.FiberID]float64{5: 0.4}, 0.25); err == nil {
		t.Error("out-of-range fiber accepted")
	}
	if _, err := Calibrated(pi, map[topology.FiberID]float64{0: 1.5}, 0.25); err == nil {
		t.Error("invalid pNN accepted")
	}
	if _, err := Calibrated([]float64{2}, nil, 0.25); err == nil {
		t.Error("invalid pi accepted")
	}
}

func TestStaticCopies(t *testing.T) {
	pi := []float64{0.1, 0.2}
	out := Static(pi)
	out[0] = 99
	if pi[0] == 99 {
		t.Fatal("Static returned an alias")
	}
}

// Property: scenario probabilities are nonnegative, sum below 1, and
// deduplicated.
func TestQuickEnumerateSane(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		rng := stats.NewRNG(seed)
		n := int(nRaw%20) + 1
		probs := make([]float64, n)
		for i := range probs {
			probs[i] = rng.Float64() * 0.1
		}
		set, err := Enumerate(probs, DefaultOptions())
		if err != nil {
			return false
		}
		seen := map[string]bool{}
		var sum float64
		for _, s := range set.Scenarios {
			if s.Prob < 0 {
				return false
			}
			key := fmt.Sprint(s.Cut)
			if seen[key] {
				return false
			}
			seen[key] = true
			sum += s.Prob
		}
		return sum <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: calibration with degradations only ever increases a degraded
// fiber's probability relative to (1-alpha) p_i when pNN > p_i.
func TestQuickCalibrationOrdering(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		pi := []float64{rng.Float64() * 0.01}
		pNN := 0.3 + rng.Float64()*0.6
		out, err := Calibrated(pi, map[topology.FiberID]float64{0: pNN}, 0.25)
		if err != nil {
			return false
		}
		base, err := Calibrated(pi, nil, 0.25)
		if err != nil {
			return false
		}
		return out[0] > base[0]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEnumerateTriples pins the MaxFailures >= 3 extension: a storm-like
// input (two fibers calibrated to high failure probability) leaves
// percent-level mass in triple-failure scenarios, which MaxFailures: 3
// recovers while MaxFailures: 2 output stays exactly as before.
func TestEnumerateTriples(t *testing.T) {
	probs := []float64{0.81, 0.81, 0.02, 0.01, 0.015, 0.005}
	opts2 := Options{Cutoff: 1e-9, MaxFailures: 2, MaxScenarios: 2000}
	opts3 := opts2
	opts3.MaxFailures = 3
	set2 := mustEnumerate(t, probs, opts2)
	set3 := mustEnumerate(t, probs, opts3)
	if covered(set3) <= covered(set2) {
		t.Fatalf("triples did not add mass: %v vs %v", covered(set3), covered(set2))
	}
	// With both storm fibers at 0.81, the doubles-only set misses the
	// {0, 1, other} triples whose mass is ~0.81^2 * sum of the rest.
	if covered(set2) > 0.99 || covered(set3) < 0.99 {
		t.Fatalf("mass split unexpected: doubles %v, triples %v", covered(set2), covered(set3))
	}
	var sawTriple bool
	for _, s := range set3.Scenarios {
		switch len(s.Cut) {
		case 0, 1, 2:
		case 3:
			sawTriple = true
			// Probability must be the exact direct product.
			want := 1.0
			cut := s.CutSet()
			for i, p := range probs {
				if cut[topology.FiberID(i)] {
					want *= p
				} else {
					want *= 1 - p
				}
			}
			if s.Prob != want {
				t.Fatalf("triple %v prob %v, want exact %v", s.Cut, s.Prob, want)
			}
			// Cut indices are strictly ascending.
			if !(s.Cut[0] < s.Cut[1] && s.Cut[1] < s.Cut[2]) {
				t.Fatalf("triple cut not ascending: %v", s.Cut)
			}
		default:
			t.Fatalf("scenario with %d cuts enumerated: %v", len(s.Cut), s.Cut)
		}
	}
	if !sawTriple {
		t.Fatal("no triple-failure scenario enumerated at MaxFailures 3")
	}
	// MaxFailures 4 is accepted but adds nothing beyond triples.
	opts4 := opts3
	opts4.MaxFailures = 4
	set4 := mustEnumerate(t, probs, opts4)
	if !reflect.DeepEqual(set4, set3) {
		t.Fatal("MaxFailures 4 diverged from 3: quadruples should be omitted")
	}
}
