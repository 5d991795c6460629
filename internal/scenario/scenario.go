// Package scenario constructs the probabilistic failure scenarios q in Q_s
// that PreTE's optimization (§4.3) and the benchmark TE schemes plan
// against. A scenario is a set of simultaneously cut fibers; its probability
// is the product over fibers of p_n or (1 - p_n) per the paper's
// p_q = prod_n (q_n p_n + (1 - q_n)(1 - p_n)).
//
// Scenario sets are enumerated up to a probability cutoff ("we select
// degradation and failure scenarios based on the specific cutoff values",
// §6.1): the empty scenario, all single-fiber failures, and the most likely
// double-fiber failures.
package scenario

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"prete/internal/topology"
)

// Scenario is one failure scenario: the set of cut fibers and its
// probability under the current (possibly degradation-calibrated) per-fiber
// failure probabilities.
type Scenario struct {
	Cut  []topology.FiberID // sorted
	Prob float64
}

// CutInto returns the scenario's cut fibers as a FiberSet built in dst's
// storage, which it overwrites: a loop over scenarios passes back what the
// previous call returned and allocates only when a cut needs more words.
func (s Scenario) CutInto(dst topology.FiberSet) topology.FiberSet {
	dst = dst[:0]
	for _, f := range s.Cut {
		dst.Add(f)
	}
	return dst
}

// CutSet returns the scenario's cut fibers as a map, the form
// te.Delivered takes.
func (s Scenario) CutSet() map[topology.FiberID]bool {
	m := make(map[topology.FiberID]bool, len(s.Cut))
	for _, f := range s.Cut {
		m[f] = true
	}
	return m
}

// Set is an enumerated scenario collection.
type Set struct {
	Scenarios []Scenario
}

// Options bounds enumeration.
type Options struct {
	// Cutoff drops scenarios with probability below it, except the empty
	// scenario; MaxScenarios may still evict that one.
	Cutoff float64
	// MaxFailures caps the number of simultaneously cut fibers (>= 1).
	// Enumeration materializes up to triple failures: 1 yields singles, 2
	// adds doubles, and >= 3 adds triples (needed when a degradation storm
	// calibrates several fibers to high probability at once).
	MaxFailures int
	// MaxScenarios caps the set size, keeping the most probable.
	MaxScenarios int
}

// DefaultOptions matches the simulation setup: up to double failures, a
// 1e-9 cutoff, and at most 2000 scenarios.
func DefaultOptions() Options {
	return Options{Cutoff: 1e-9, MaxFailures: 2, MaxScenarios: 2000}
}

// Enumerate builds the scenario set for per-fiber failure probabilities
// probs (indexed by FiberID). It is a pure, deterministic function of
// (probs, opts): the same inputs always produce a bit-identical set, which
// is the property FingerprintProbs and the cross-epoch solve cache rely on.
func Enumerate(probs []float64, opts Options) (*Set, error) {
	for i, p := range probs {
		if p < 0 || p > 1 || math.IsNaN(p) {
			return nil, fmt.Errorf("scenario: fiber %d has invalid probability %v", i, p)
		}
	}
	if opts.MaxFailures < 1 {
		opts.MaxFailures = 1
	}
	if opts.MaxScenarios < 1 {
		opts.MaxScenarios = 1
	}
	n := len(probs)
	// Per-scenario probability computed directly as
	// prod_{i in cut} p_i * prod_{i not in cut} (1 - p_i). The direct
	// product (rather than dividing (1-p_i) factors out of the all-up
	// probability) stays exact when some p_i is 0 or 1 — PreTE's
	// evaluation conditions on "this fiber will certainly cut" (p = 1).
	scenProb := func(cut ...int) float64 {
		p := 1.0
		for i, pi := range probs {
			if slices.Contains(cut, i) {
				p *= pi
			} else {
				p *= 1 - pi
			}
		}
		return p
	}
	var out []Scenario
	out = append(out, Scenario{Prob: scenProb()})
	// single failures
	for i := 0; i < n; i++ {
		p := scenProb(i)
		if p >= opts.Cutoff && p > 0 {
			out = append(out, Scenario{Cut: []topology.FiberID{topology.FiberID(i)}, Prob: p})
		}
	}
	// double failures
	if opts.MaxFailures >= 2 {
		for i := 0; i < n; i++ {
			if probs[i] <= 0 {
				continue
			}
			for j := i + 1; j < n; j++ {
				p := scenProb(i, j)
				if p >= opts.Cutoff && p > 0 {
					out = append(out, Scenario{
						Cut:  []topology.FiberID{topology.FiberID(i), topology.FiberID(j)},
						Prob: p,
					})
				}
			}
		}
	}
	// Triple failures are enumerated only when MaxFailures >= 3. Under the
	// paper's quiet-epoch probabilities their mass is far below any
	// tractable cutoff (hence the default of 2), but a degradation storm
	// calibrates several fibers to high probability at once, where the
	// triples carry percent-level mass that beta-feasibility needs.
	if opts.MaxFailures >= 3 {
		for i := 0; i < n; i++ {
			if probs[i] <= 0 {
				continue
			}
			for j := i + 1; j < n; j++ {
				if probs[j] <= 0 {
					continue
				}
				for k := j + 1; k < n; k++ {
					p := scenProb(i, j, k)
					if p >= opts.Cutoff && p > 0 {
						out = append(out, Scenario{
							Cut:  []topology.FiberID{topology.FiberID(i), topology.FiberID(j), topology.FiberID(k)},
							Prob: p,
						})
					}
				}
			}
		}
	}
	// Quadruples and beyond are omitted: even storm calibrations leave
	// their mass below the cutoffs that keep the optimization tractable.

	// Descending probability, stably, so equal-probability scenarios keep
	// the append order of the loops above.
	slices.SortStableFunc(out, func(a, b Scenario) int { return cmp.Compare(b.Prob, a.Prob) })
	if len(out) > opts.MaxScenarios {
		out = out[:opts.MaxScenarios]
	}
	// The empty scenario goes first, if it survived the cap.
	if len(out[0].Cut) != 0 {
		for i := range out {
			if len(out[i].Cut) == 0 {
				out[0], out[i] = out[i], out[0]
				break
			}
		}
	}
	return &Set{Scenarios: out}, nil
}

// Calibrated computes Eqn. 1's per-fiber failure probabilities for a
// degradation scenario: p_n = p_NN when fiber n is degraded (predicted by
// the NN), and (1 - alpha) * p_i otherwise (Theorem 4.1).
//
// pi is the static per-epoch failure probability per fiber; degraded maps a
// degraded fiber to its NN-predicted failure probability.
func Calibrated(pi []float64, degraded map[topology.FiberID]float64, alpha float64) ([]float64, error) {
	if alpha < 0 || alpha >= 1 {
		return nil, fmt.Errorf("scenario: alpha %v out of [0, 1)", alpha)
	}
	out := make([]float64, len(pi))
	for i, p := range pi {
		if p < 0 || p > 1 {
			return nil, fmt.Errorf("scenario: fiber %d has invalid p_i %v", i, p)
		}
		out[i] = (1 - alpha) * p
	}
	for f, pNN := range degraded {
		if int(f) < 0 || int(f) >= len(pi) {
			return nil, fmt.Errorf("scenario: degraded fiber %d out of range", f)
		}
		if pNN < 0 || pNN > 1 {
			return nil, fmt.Errorf("scenario: fiber %d has invalid p_NN %v", f, pNN)
		}
		out[f] = pNN
	}
	return out, nil
}

// Static returns the uncalibrated probabilities (what TeaVaR-style schemes
// use): p_n = p_i for every fiber, regardless of degradation state.
func Static(pi []float64) []float64 {
	return append([]float64(nil), pi...)
}
