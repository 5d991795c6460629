package scenario

import (
	"fmt"
	"math"
	"sort"
)

// Fingerprint is a deterministic 64-bit identity for a scenario set (or for
// the enumeration inputs that produce one). Two sets with equal fingerprints
// are treated as identical by the cross-epoch solve cache; the hash covers
// both the cut structure and the exact probability bits, so any drift in
// either changes the fingerprint.
type Fingerprint uint64

// String renders the fingerprint as fixed-width hex (stable for logs and
// journal records).
func (f Fingerprint) String() string { return fmt.Sprintf("%016x", uint64(f)) }

// fnvOffset and fnvPrime are the FNV-1a 64-bit parameters. FNV is used
// everywhere a fingerprint is computed: it is deterministic across
// processes and platforms (no map iteration, no hash seed), which is what
// lets a restarted controller compare its re-enumerated scenario set
// against the fingerprint its predecessor journaled.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

func fnvUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(v>>(8*i)))
	}
	return h
}

func fnvFloat(h uint64, v float64) uint64 { return fnvUint64(h, math.Float64bits(v)) }

// structureHash hashes one scenario's cut set (not its probability).
func (s Scenario) structureHash() uint64 {
	h := uint64(fnvOffset)
	h = fnvUint64(h, uint64(len(s.Cut)))
	for _, f := range s.Cut {
		h = fnvUint64(h, uint64(f))
	}
	return h
}

// Fingerprint returns the full identity of the set: scenario order, cut
// structure, and the exact probability bits. Enumerate is deterministic, so
// equal probability vectors and options always reproduce equal
// fingerprints; conversely, any probability drift — however small — changes
// the fingerprint, which is what makes "unchanged" a safe fast path for the
// solve cache (bit-identical inputs imply a bit-identical solve).
func (s *Set) Fingerprint() Fingerprint {
	if s == nil {
		return 0
	}
	h := uint64(fnvOffset)
	h = fnvUint64(h, uint64(len(s.Scenarios)))
	for _, sc := range s.Scenarios {
		h = fnvUint64(h, sc.structureHash())
		h = fnvFloat(h, sc.Prob)
	}
	return Fingerprint(h)
}

// StructureFingerprint identifies the set's cut structure only, insensitive
// to probabilities AND to scenario order (probability drift reorders the
// probability-sorted enumeration without changing which scenarios exist).
// Two sets with equal structure fingerprints enumerate the same failure
// combinations, so Benders cuts derived from one remain valid optimality
// cuts for the other — the probability-only reuse case.
func (s *Set) StructureFingerprint() Fingerprint {
	if s == nil {
		return 0
	}
	hashes := make([]uint64, len(s.Scenarios))
	for i, sc := range s.Scenarios {
		hashes[i] = sc.structureHash()
	}
	sort.Slice(hashes, func(a, b int) bool { return hashes[a] < hashes[b] })
	h := uint64(fnvOffset)
	h = fnvUint64(h, uint64(len(hashes)))
	for _, v := range hashes {
		h = fnvUint64(h, v)
	}
	return Fingerprint(h)
}

// FingerprintProbs fingerprints the *inputs* of an enumeration — the
// per-fiber probability vector and the enumeration options — without
// running it. Enumerate is a pure function of exactly these inputs, so
// equal input fingerprints guarantee bit-identical sets; the evaluator's
// enumeration memo keys on this to skip re-enumerating unchanged epochs.
func FingerprintProbs(probs []float64, opts Options) Fingerprint {
	h := uint64(fnvOffset)
	h = fnvUint64(h, uint64(len(probs)))
	for _, p := range probs {
		h = fnvFloat(h, p)
	}
	h = fnvFloat(h, opts.Cutoff)
	h = fnvUint64(h, uint64(opts.MaxFailures))
	h = fnvUint64(h, uint64(opts.MaxScenarios))
	return Fingerprint(h)
}

// DeltaClass classifies how a scenario set changed between two TE epochs.
type DeltaClass int

const (
	// DeltaUnchanged: the sets are bit-identical (same scenarios, same
	// order, same probability bits). A cached solve result is reusable
	// verbatim.
	DeltaUnchanged DeltaClass = iota
	// DeltaProbOnly: the same failure combinations are enumerated but at
	// least one probability moved (the common between-epoch case — a few
	// calibrated probabilities drift). Structural Benders cuts and
	// subproblem optimality cuts remain valid; only the master's
	// probability-weighted rows need reweighting.
	DeltaProbOnly
	// DeltaStructural: the enumerated combinations themselves differ
	// (scenarios appeared or disappeared — a topology change, an options
	// change, or probability drift large enough to cross the enumeration
	// cutoff). Cached cuts may reference classes that no longer exist;
	// everything must be evicted and re-derived.
	DeltaStructural
)

// String names the class for tables and metrics.
func (c DeltaClass) String() string {
	switch c {
	case DeltaUnchanged:
		return "unchanged"
	case DeltaProbOnly:
		return "prob-only"
	case DeltaStructural:
		return "structural"
	}
	return fmt.Sprintf("DeltaClass(%d)", int(c))
}

// Delta describes the difference between a scenario set and its
// predecessor.
type Delta struct {
	Class DeltaClass
}

// Diff classifies how the set differs from prev. A nil prev (first epoch)
// is structural: there is nothing to reuse. The classification is exact,
// not probabilistic: unchanged means bit-identical fingerprints, prob-only
// means identical cut structure, and everything else is structural.
func (s *Set) Diff(prev *Set) Delta {
	switch {
	case prev == nil:
		return Delta{Class: DeltaStructural}
	case s.Fingerprint() == prev.Fingerprint():
		return Delta{Class: DeltaUnchanged}
	case s.StructureFingerprint() != prev.StructureFingerprint():
		return Delta{Class: DeltaStructural}
	}
	return Delta{Class: DeltaProbOnly}
}
