package scenario

import (
	"math"
	"testing"

	"prete/internal/stats"
	"prete/internal/topology"
)

// TestCalibratedTheorem41Bound checks Theorem 4.1's calibration over random
// grids: every non-degraded fiber gets exactly (1 - alpha) * p_i, which is
// never above the static p_i, and degraded fibers get the NN prediction
// verbatim. The grids are drawn from a seeded RNG so failures replay.
func TestCalibratedTheorem41Bound(t *testing.T) {
	rng := stats.NewRNG(0x7e51)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		pi := make([]float64, n)
		for i := range pi {
			pi[i] = rng.Float64()
		}
		alpha := rng.Float64() * 0.999 // [0, 1)
		degraded := map[topology.FiberID]float64{}
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.3 {
				degraded[topology.FiberID(i)] = rng.Float64()
			}
		}
		out, err := Calibrated(pi, degraded, alpha)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i, p := range out {
			if pNN, ok := degraded[topology.FiberID(i)]; ok {
				if p != pNN {
					t.Fatalf("trial %d: degraded fiber %d got %v, want p_NN %v", trial, i, p, pNN)
				}
				continue
			}
			want := (1 - alpha) * pi[i]
			if p != want {
				t.Fatalf("trial %d: fiber %d got %v, want (1-alpha)p_i = %v", trial, i, p, want)
			}
			if p > pi[i] {
				t.Fatalf("trial %d: calibrated %v exceeds static p_i %v (Theorem 4.1 bound)", trial, p, pi[i])
			}
			if p < 0 || p > 1 {
				t.Fatalf("trial %d: calibrated probability %v out of [0,1]", trial, p)
			}
		}
	}
}

// TestCalibratedMonotoneInPrediction checks Eqn. 1's shape property: raising
// only the NN prediction for a degraded fiber can never lower its calibrated
// failure probability, and leaves every other fiber untouched.
func TestCalibratedMonotoneInPrediction(t *testing.T) {
	rng := stats.NewRNG(0xca11b)
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(10)
		pi := make([]float64, n)
		for i := range pi {
			pi[i] = rng.Float64()
		}
		alpha := rng.Float64() * 0.999
		f := topology.FiberID(rng.Intn(n))
		lo, hi := rng.Float64(), rng.Float64()
		if lo > hi {
			lo, hi = hi, lo
		}
		a, err := Calibrated(pi, map[topology.FiberID]float64{f: lo}, alpha)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Calibrated(pi, map[topology.FiberID]float64{f: hi}, alpha)
		if err != nil {
			t.Fatal(err)
		}
		if a[f] > b[f] {
			t.Fatalf("trial %d: calibrated prob fell (%v -> %v) as p_NN rose (%v -> %v)",
				trial, a[f], b[f], lo, hi)
		}
		for i := range a {
			if topology.FiberID(i) != f && a[i] != b[i] {
				t.Fatalf("trial %d: fiber %d changed (%v -> %v) when only fiber %d's prediction moved",
					trial, i, a[i], b[i], f)
			}
		}
	}
}

// TestEnumerateMassMonotoneInPrediction lifts the monotonicity through the
// scenario enumeration: the total probability mass of scenarios that cut a
// degraded fiber is nondecreasing in that fiber's NN prediction. This is the
// property the optimizer actually consumes — a more pessimistic prediction
// must never make the planner treat the fiber as safer.
func TestEnumerateMassMonotoneInPrediction(t *testing.T) {
	rng := stats.NewRNG(0xe17)
	opts := Options{Cutoff: 0, MaxFailures: 2, MaxScenarios: 1 << 20} // exhaustive up to doubles
	cutMass := func(probs []float64, f topology.FiberID) float64 {
		set, err := Enumerate(probs, opts)
		if err != nil {
			t.Fatal(err)
		}
		var m float64
		for _, s := range set.Scenarios {
			for _, c := range s.Cut {
				if c == f {
					m += s.Prob
					break
				}
			}
		}
		return m
	}
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(6)
		pi := make([]float64, n)
		for i := range pi {
			pi[i] = rng.Float64() * 0.2 // realistic per-epoch failure rates
		}
		alpha := rng.Float64() * 0.5
		f := topology.FiberID(rng.Intn(n))
		lo, hi := rng.Float64(), rng.Float64()
		if lo > hi {
			lo, hi = hi, lo
		}
		pLo, err := Calibrated(pi, map[topology.FiberID]float64{f: lo}, alpha)
		if err != nil {
			t.Fatal(err)
		}
		pHi, err := Calibrated(pi, map[topology.FiberID]float64{f: hi}, alpha)
		if err != nil {
			t.Fatal(err)
		}
		mLo, mHi := cutMass(pLo, f), cutMass(pHi, f)
		if mHi < mLo-1e-12 {
			t.Fatalf("trial %d: cut mass fell %v -> %v as p_NN rose %v -> %v",
				trial, mLo, mHi, lo, hi)
		}
	}
}

// TestEnumerateProbabilitiesConsistent checks the enumeration invariants on
// random grids without a binding cap: scenario probabilities match the
// Bernoulli product exactly, the empty scenario comes first, and the
// covered mass never exceeds 1.
func TestEnumerateProbabilitiesConsistent(t *testing.T) {
	rng := stats.NewRNG(0x5ce)
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(7)
		probs := make([]float64, n)
		for i := range probs {
			probs[i] = rng.Float64()
		}
		set, err := Enumerate(probs, Options{Cutoff: 0, MaxFailures: 2, MaxScenarios: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if len(set.Scenarios[0].Cut) != 0 {
			t.Fatalf("trial %d: first scenario is not the empty scenario", trial)
		}
		if covered(set) > 1+1e-9 {
			t.Fatalf("trial %d: covered mass %v > 1", trial, covered(set))
		}
		for si, s := range set.Scenarios {
			want := 1.0
			cut := s.CutSet()
			for i, p := range probs {
				if cut[topology.FiberID(i)] {
					want *= p
				} else {
					want *= 1 - p
				}
			}
			if math.Abs(s.Prob-want) > 1e-12 {
				t.Fatalf("trial %d: scenario %d prob %v, Bernoulli product %v", trial, si, s.Prob, want)
			}
		}
	}
}
