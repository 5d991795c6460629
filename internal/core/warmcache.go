package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"sync"

	"prete/internal/obs"
	"prete/internal/scenario"
	"prete/internal/te"
	"prete/internal/topology"
)

// SolveCache carries solve artifacts across TE epochs so that consecutive
// SolveCached calls on nearly identical inputs reuse work instead of
// re-deriving it. It retains, from the last completed solve: the scenario
// set (for delta classification), the class identity list, the full
// Benders cut pool, and the result itself. The reuse ladder, driven by
// scenario.Set.Diff against the cached set:
//
//   - unchanged: the inputs are bit-identical, the solver is deterministic,
//     so the cached result IS the answer — returned as a deep copy without
//     touching the LP layer (a cache hit).
//   - probabilities-only: the failure combinations are the same, so every
//     cached cut is still a valid optimality cut (cut coefficients depend
//     on demands, capacities, and surviving-tunnel sets — never on
//     probabilities, which enter only the master's beta rows, rebuilt each
//     solve). The cuts are remapped onto the new class order and the solve
//     warm-starts from the full pool (a revalidation).
//   - structural (or any change to topology, tunnels, demands, beta, or
//     solver knobs — tracked by an input fingerprint): the cache is evicted
//     and the solve runs cold. Stale cuts must never survive a structural
//     change; a cut referencing a class that no longer exists would
//     silently bias the master.
//
// The determinism contract: SolveCached with an unchanged scenario set
// returns a result bit-identical to a cold Solve on the same input
// (pinned by TestWarmCache* and FuzzWarmCache).
// A SolveCache is safe for concurrent use; the zero value is ready.
type SolveCache struct {
	mu sync.Mutex

	valid     bool
	inputFP   uint64
	set       *scenario.Set
	classKeys []string
	cuts      []bendersCut
	result    *Result

	stats CacheStats
}

// CacheStats counts SolveCache outcomes since construction.
type CacheStats struct {
	// Hits: unchanged scenario set, cached result returned verbatim.
	Hits uint64
	// Revalidations: probability-only drift, cut pool reused to warm-start.
	Revalidations uint64
	// Misses: cold solves (first use, or nothing reusable).
	Misses uint64
	// Evictions: cached state discarded because the input fingerprint or
	// scenario structure changed (a subset of Misses after first use).
	Evictions uint64
	// CutsReused totals the cuts carried into warm-started solves.
	CutsReused uint64
	// LastDelta is the scenario delta of the most recent SolveCached call
	// (structural on first use and on input-fingerprint evictions).
	LastDelta scenario.Delta
}

// Stats returns a snapshot of the cache's outcome counters.
func (c *SolveCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// SolveCached is Solve with cross-epoch reuse through cache. A nil cache
// degenerates to Solve. The call classifies in.Scenarios against the cached
// set (plus an input fingerprint over topology, tunnels, demands, beta, and
// solver knobs) and takes the reuse ladder described on SolveCache; it
// always stores the completed solve's artifacts for the next epoch.
func (o *Optimizer) SolveCached(in *te.Input, cache *SolveCache) (*Result, error) {
	return o.solveCached(in, cache, lazyClasses(in))
}

// solveCached is SolveCached taking in's class model from classes (see
// newSolveModel), which a cache hit never calls. A nil cache solves cold.
func (o *Optimizer) solveCached(in *te.Input, cache *SolveCache, classes func() *classModel) (*Result, error) {
	if cache == nil {
		sm, err := newSolveModel(in, classes)
		if err != nil {
			return nil, err
		}
		res, _, err := o.solve(sm, o.newBudget(), nil)
		return res, err
	}
	m := o.cacheMetrics()
	fp := o.inputFingerprint(in)

	cache.mu.Lock()
	defer cache.mu.Unlock()

	var delta scenario.Delta
	if cache.valid && fp == cache.inputFP {
		delta = in.Scenarios.Diff(cache.set)
	} else {
		// First use, or anything outside the scenario set changed: nothing
		// is reusable, whatever the scenario delta says.
		delta = in.Scenarios.Diff(nil)
	}
	cache.stats.LastDelta = delta

	if delta.Class == scenario.DeltaUnchanged {
		cache.stats.Hits++
		m.hits.Inc()
		return cloneResult(cache.result), nil
	}

	// Past a hit every rung needs the classes: built here, once.
	sm, err := newSolveModel(in, classes)
	if delta.Class == scenario.DeltaProbOnly {
		if err != nil {
			cache.evictLocked(m)
			return nil, err
		}
		// A nil pool means class identity drifted in a way the scenario
		// delta did not predict — never reuse on a mismatch; fall through
		// to cold.
		if warm := remapCuts(cache.cuts, cache.classKeys, sm.keys); warm != nil {
			res, cuts, err := o.solve(sm, o.newBudget(), warm)
			if err != nil {
				cache.evictLocked(m)
				return nil, err
			}
			cache.stats.Revalidations++
			cache.stats.CutsReused += uint64(len(warm))
			m.revalidated.Inc()
			m.cutsReused.Add(int64(len(warm)))
			cache.storeLocked(fp, sm, cuts, res)
			return res, nil
		}
	}

	// Cold path: structural delta, input change, or defensive fallback.
	if cache.valid {
		cache.evictLocked(m)
	}
	cache.stats.Misses++
	m.misses.Inc()
	if err != nil {
		return nil, err
	}
	res, cuts, err := o.solve(sm, o.newBudget(), nil)
	if err != nil {
		return nil, err
	}
	cache.storeLocked(fp, sm, cuts, res)
	return res, nil
}

func (c *SolveCache) storeLocked(fp uint64, sm *solveModel, cuts []bendersCut, res *Result) {
	c.valid = true
	c.inputFP = fp
	c.set = sm.in.Scenarios
	c.classKeys = sm.keys // the model's own slice: nothing writes it after buildClasses
	c.cuts = distinctCuts(cuts)
	c.result = cloneResult(res)
}

// distinctCuts returns the pool without repeats, in first-seen order. A cut
// equal to an earlier one in its constant and every coefficient is the same
// master row again. A probability-only revalidation re-derives a cut the
// pool already holds (the subproblem never reads probabilities), so a pool
// kept whole would grow by a duplicate every epoch.
func distinctCuts(cuts []bendersCut) []bendersCut {
	out := make([]bendersCut, 0, len(cuts))
	seen := make(map[uint64][]int, len(cuts)) // content hash -> indices in out
	for _, c := range cuts {
		// FNV-1a over 64-bit words: a bucket key only, equality decides.
		k := math.Float64bits(c.con)
		for _, w := range c.coef {
			k = (k ^ math.Float64bits(w)) * 1099511628211
		}
		if slices.ContainsFunc(seen[k], func(i int) bool {
			return out[i].con == c.con && slices.Equal(out[i].coef, c.coef)
		}) {
			continue
		}
		seen[k] = append(seen[k], len(out))
		out = append(out, c)
	}
	return out
}

func (c *SolveCache) evictLocked(m cacheObs) {
	c.valid = false
	c.set = nil
	c.classKeys = nil
	c.cuts = nil
	c.result = nil
	c.stats.Evictions++
	m.evictions.Inc()
}

// cacheObs holds the warm-cache metric handles (nil-safe, like optObs).
type cacheObs struct {
	hits, misses, revalidated, evictions, cutsReused *obs.Counter
}

func (o *Optimizer) cacheMetrics() cacheObs {
	r := o.Metrics
	return cacheObs{
		hits:        r.Counter("core.warmcache.hits"),
		misses:      r.Counter("core.warmcache.misses"),
		revalidated: r.Counter("core.warmcache.revalidated"),
		evictions:   r.Counter("core.warmcache.evictions"),
		cutsReused:  r.Counter("core.warmcache.cuts_reused"),
	}
}

// remapCuts rewrites a cached cut pool from the old class order to the new
// one, matching classes by identity key (classModel.keys: the flow and its
// surviving-tunnel mask). A key is invariant under probability-only drift
// (surviving-tunnel sets depend only on scenario cut structure), while the
// class *order* is not — Enumerate sorts by probability, and classes form
// in first-seen scenario order — which is exactly why cached cuts are
// remapped by key rather than carried over by index. It returns nil —
// reuse refused — unless the key sets correspond exactly (same multiset,
// no additions, no removals): any mismatch means the failure-equivalence
// structure moved and the cuts' per-class coefficients can no longer be
// placed soundly.
func remapCuts(cuts []bendersCut, oldKeys, newKeys []string) []bendersCut {
	if len(oldKeys) != len(newKeys) {
		return nil
	}
	oldIdx := make(map[string]int, len(oldKeys))
	for i, k := range oldKeys {
		if _, dup := oldIdx[k]; dup {
			return nil // duplicate identities cannot be matched reliably
		}
		oldIdx[k] = i
	}
	perm := make([]int, len(newKeys)) // new index -> old index
	for ni, k := range newKeys {
		oi, ok := oldIdx[k]
		if !ok {
			return nil
		}
		perm[ni] = oi
		delete(oldIdx, k)
	}
	out := make([]bendersCut, len(cuts))
	for ci, cut := range cuts {
		coef := make([]float64, len(newKeys))
		for ni, oi := range perm {
			coef[ni] = cut.coef[oi]
		}
		out[ci] = bendersCut{coef: coef, con: cut.con}
	}
	return out
}

// cloneResult deep-copies a Result so cached state and caller-visible
// results never alias.
func cloneResult(r *Result) *Result {
	cp := *r
	cp.Alloc = r.Alloc.Clone()
	cp.Selected = append([]bool(nil), r.Selected...)
	return &cp
}

// inputFingerprint hashes everything outside the scenario set that a solve
// depends on: link capacities and fiber composition, the tunnel table
// (IDs, flows, link paths, fiber sets), demands, beta, and the solver
// knobs that shape the search. Any change evicts: cut coefficients embed
// demands and capacities, so reusing them across such a change would be
// unsound.
func (o *Optimizer) inputFingerprint(in *te.Input) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f := func(v float64) { u(math.Float64bits(v)) }

	u(uint64(len(in.Net.Links)))
	for _, l := range in.Net.Links {
		u(uint64(l.ID))
		f(l.Capacity)
		u(uint64(len(l.Fibers)))
		for _, fb := range l.Fibers {
			u(uint64(fb))
		}
	}
	u(uint64(len(in.Tunnels.Tunnels)))
	for _, t := range in.Tunnels.Tunnels {
		u(uint64(t.ID))
		u(uint64(t.Flow))
		u(uint64(len(t.Links)))
		for _, lid := range t.Links {
			u(uint64(lid))
		}
		n := 0
		t.Fibers.Each(func(topology.FiberID) { n++ })
		u(uint64(n))
		t.Fibers.Each(func(fb topology.FiberID) { u(uint64(fb)) })
	}
	u(uint64(len(in.Demands)))
	for _, d := range in.Demands {
		f(d)
	}
	f(in.Beta)

	b := uint64(0)
	if o.DisableStructuralCuts {
		b |= 1
	}
	if o.DisablePolish {
		b |= 2
	}
	u(b)
	u(uint64(o.BudgetUnits))
	u(uint64(o.SolveTimeout))
	return h.Sum64()
}
