// Package stats provides the statistical machinery PreTE depends on:
// deterministic random number generation, the probability distributions used
// to model fiber failures (Weibull, geometric, exponential), the chi-square
// hypothesis test from §3 of the paper, equal-width binning, empirical CDFs,
// and classification metrics (precision/recall/F1).
//
// Everything is implemented on top of the standard library so that the whole
// repository builds offline, and all randomness is funneled through RNG so
// experiments are reproducible bit-for-bit from a seed. Parallel code draws
// per-task streams via SubRNG, which depends only on (seed, task index) and
// so keeps results identical at every parallelism level (see internal/par).
package stats

import "math"

// RNG is a small, fast, deterministic pseudo-random generator based on
// SplitMix64. It is intentionally not cryptographically secure; it exists so
// every simulation and trace in this repository can be reproduced from a
// seed, and so independent components can derive decorrelated streams via
// Split.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two RNGs with the same seed
// produce identical streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// next advances the SplitMix64 state and returns the next 64 random bits.
func (r *RNG) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Split derives a new, decorrelated generator from r. The child stream is a
// deterministic function of r's current state, so call order matters (and is
// part of an experiment's reproducible identity).
func (r *RNG) Split() *RNG {
	return &RNG{state: r.next() ^ 0x6a09e667f3bcc909}
}

// SubRNG derives the decorrelated generator for parallel task index of a
// computation seeded with seed. Unlike Split, the child stream depends only
// on (seed, index) — never on call order — so workers in an internal/par
// fan-out can draw randomness without sharing a stream, and the result is
// identical at every parallelism level.
func SubRNG(seed, index uint64) *RNG {
	// One SplitMix64 scramble of the index keeps adjacent task streams
	// decorrelated even though their seeds differ by 1.
	z := (index + 1) * 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return &RNG{state: seed ^ z ^ (z >> 31)}
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	// 53 high-quality bits -> [0,1) with full double precision.
	return float64(r.next()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.next() % uint64(n))
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// NormFloat64 returns a standard normal variate (Box-Muller, polar form).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}
