package scenario

import (
	"math/rand"
	"testing"
)

func testProbs(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	probs := make([]float64, n)
	for i := range probs {
		probs[i] = 0.001 + 0.05*rng.Float64()
	}
	return probs
}

func mustEnumerate(t *testing.T, probs []float64, opts Options) *Set {
	t.Helper()
	s, err := Enumerate(probs, opts)
	if err != nil {
		t.Fatalf("Enumerate: %v", err)
	}
	return s
}

func TestFingerprintDeterministic(t *testing.T) {
	probs := testProbs(12, 1)
	opts := Options{Cutoff: 1e-9, MaxFailures: 2, MaxScenarios: 100}
	a := mustEnumerate(t, probs, opts)
	b := mustEnumerate(t, probs, opts)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("same inputs, different fingerprints: %v vs %v", a.Fingerprint(), b.Fingerprint())
	}
	if a.StructureFingerprint() != b.StructureFingerprint() {
		t.Fatalf("same inputs, different structure fingerprints")
	}
	if FingerprintProbs(probs, opts) != FingerprintProbs(probs, opts) {
		t.Fatalf("FingerprintProbs not deterministic")
	}
	if a.Fingerprint() == 0 {
		t.Fatalf("fingerprint of non-empty set is zero")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	probs := testProbs(12, 2)
	opts := Options{Cutoff: 1e-9, MaxFailures: 2, MaxScenarios: 100}
	base := mustEnumerate(t, probs, opts)

	// Probability drift changes the full fingerprint.
	drifted := append([]float64(nil), probs...)
	drifted[3] += 1e-12
	d := mustEnumerate(t, drifted, opts)
	if d.Fingerprint() == base.Fingerprint() {
		t.Fatalf("probability drift did not change fingerprint")
	}
	if FingerprintProbs(drifted, opts) == FingerprintProbs(probs, opts) {
		t.Fatalf("probability drift did not change input fingerprint")
	}

	// Different options change the input fingerprint even with same probs.
	opts2 := opts
	opts2.MaxScenarios = 50
	if FingerprintProbs(probs, opts2) == FingerprintProbs(probs, opts) {
		t.Fatalf("options change did not change input fingerprint")
	}
}

func TestDiffUnchanged(t *testing.T) {
	probs := testProbs(10, 3)
	opts := Options{Cutoff: 1e-9, MaxFailures: 2, MaxScenarios: 80}
	a := mustEnumerate(t, probs, opts)
	b := mustEnumerate(t, probs, opts)
	d := b.Diff(a)
	if d.Class != DeltaUnchanged {
		t.Fatalf("identical sets classified %v, want unchanged", d.Class)
	}
}

func TestDiffNilPrev(t *testing.T) {
	probs := testProbs(8, 4)
	s := mustEnumerate(t, probs, Options{Cutoff: 1e-9, MaxFailures: 2, MaxScenarios: 50})
	d := s.Diff(nil)
	if d.Class != DeltaStructural {
		t.Fatalf("nil prev classified %v, want structural", d.Class)
	}
}

func TestDiffProbOnly(t *testing.T) {
	probs := testProbs(10, 5)
	// No cutoff/cap pressure: small drift cannot change which scenarios
	// survive, only their probabilities (and their sorted order).
	opts := Options{Cutoff: 0, MaxFailures: 2, MaxScenarios: 10000}
	prev := mustEnumerate(t, probs, opts)

	drifted := append([]float64(nil), probs...)
	drifted[2] += 0.004
	drifted[7] -= 0.0005
	cur := mustEnumerate(t, drifted, opts)

	d := cur.Diff(prev)
	if d.Class != DeltaProbOnly {
		t.Fatalf("pure probability drift classified %v, want prob-only", d.Class)
	}
}

func TestDiffProbOnlySurvivesReordering(t *testing.T) {
	// Drift large enough to reorder the probability-sorted set but not to
	// change which scenarios exist must still classify prob-only.
	probs := []float64{0.010, 0.011, 0.012, 0.013}
	opts := Options{Cutoff: 0, MaxFailures: 2, MaxScenarios: 10000}
	prev := mustEnumerate(t, probs, opts)

	reordered := []float64{0.013, 0.012, 0.011, 0.010}
	cur := mustEnumerate(t, reordered, opts)
	if len(cur.Scenarios) != len(prev.Scenarios) {
		t.Fatalf("scenario counts differ: %d vs %d", len(cur.Scenarios), len(prev.Scenarios))
	}
	d := cur.Diff(prev)
	if d.Class != DeltaProbOnly {
		t.Fatalf("reordering drift classified %v, want prob-only", d.Class)
	}
}

func TestDiffStructural(t *testing.T) {
	probs := testProbs(10, 6)
	opts := Options{Cutoff: 1e-9, MaxFailures: 2, MaxScenarios: 50}
	prev := mustEnumerate(t, probs, opts)

	// Zeroing a fiber's probability removes all scenarios cutting it.
	changed := append([]float64(nil), probs...)
	changed[4] = 0
	cur := mustEnumerate(t, changed, opts)
	d := cur.Diff(prev)
	if d.Class != DeltaStructural {
		t.Fatalf("fiber removal classified %v, want structural", d.Class)
	}

	// Shrinking the cap drops tail scenarios: also structural.
	opts2 := opts
	opts2.MaxScenarios = len(prev.Scenarios) - 3
	smaller := mustEnumerate(t, probs, opts2)
	d2 := smaller.Diff(prev)
	if d2.Class != DeltaStructural {
		t.Fatalf("cap shrink classified %v, want structural", d2.Class)
	}
}

func TestDeltaClassString(t *testing.T) {
	cases := map[DeltaClass]string{
		DeltaUnchanged:  "unchanged",
		DeltaProbOnly:   "prob-only",
		DeltaStructural: "structural",
		DeltaClass(9):   "DeltaClass(9)",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("DeltaClass(%d).String() = %q, want %q", int(c), got, want)
		}
	}
}

func TestFingerprintNilSet(t *testing.T) {
	var s *Set
	if s.Fingerprint() != 0 || s.StructureFingerprint() != 0 {
		t.Fatalf("nil set fingerprints should be zero")
	}
}

// covered returns the probability mass set enumerates.
func covered(set *Set) float64 {
	sum := 0.0
	for _, s := range set.Scenarios {
		sum += s.Prob
	}
	return sum
}
