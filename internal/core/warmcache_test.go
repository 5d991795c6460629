package core

import (
	"fmt"
	"reflect"
	"testing"

	"prete/internal/obs"
	"prete/internal/scenario"
	"prete/internal/stats"
	"prete/internal/te"
)

// cacheInput builds a triangle instance over explicit probabilities with no
// cutoff or cap pressure, so probability drift can never change which
// scenarios are enumerated — the controlled environment for exercising the
// prob-only reuse path.
func cacheInput(t *testing.T, probs []float64) *te.Input {
	t.Helper()
	net, ts := triangle(t)
	set, err := scenario.Enumerate(probs, scenario.Options{Cutoff: 0, MaxFailures: 2, MaxScenarios: 1000})
	if err != nil {
		t.Fatal(err)
	}
	return &te.Input{
		Net: net, Tunnels: ts,
		Demands:   te.Demands{5, 5},
		Scenarios: set, Beta: 0.99,
	}
}

// TestWarmCacheHitBitIdentical pins the headline determinism contract: on
// an unchanged scenario set, SolveCached returns a result bit-identical to
// a cold Solve — and the cached copy is isolated from caller mutation.
func TestWarmCacheHitBitIdentical(t *testing.T) {
	in := realInput(t, "B4", 7)
	cold, err := DefaultOptimizer().Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptimizer()
	cache := &SolveCache{}
	first, err := o.SolveCached(in, cache)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, cold) {
		t.Fatalf("first SolveCached diverges from cold Solve")
	}
	hit, err := o.SolveCached(in, cache)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hit, cold) {
		t.Fatalf("cache hit diverges from cold Solve")
	}
	st := cache.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Revalidations != 0 || st.Evictions != 0 {
		t.Fatalf("stats = %+v, want 1 miss then 1 hit", st)
	}
	if st.LastDelta.Class != scenario.DeltaUnchanged {
		t.Fatalf("last delta %v, want unchanged", st.LastDelta.Class)
	}
	// Mutating a returned result must not poison the cache.
	for tid := range hit.Alloc {
		hit.Alloc[tid] = -1
		break
	}
	hit2, err := o.SolveCached(in, cache)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hit2, cold) {
		t.Fatalf("cache state aliased a caller-mutated result")
	}
}

// TestWarmCacheHitAcrossParallelism extends the bit-identity contract to
// one SolveCache shared by many goroutines: whichever call misses and
// whichever hits, every result matches the serial cold solve.
func TestWarmCacheHitAcrossParallelism(t *testing.T) {
	in := realInput(t, "B4", 11)
	o := DefaultOptimizer()
	cold, err := o.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range concurrentLevels {
		cache := &SolveCache{}
		got, err := concurrently(n, func() ([2]*Result, error) {
			first, err := o.SolveCached(in, cache)
			if err != nil {
				return [2]*Result{}, err
			}
			hit, err := o.SolveCached(in, cache)
			return [2]*Result{first, hit}, err
		})
		if err != nil {
			t.Fatalf("%d goroutines: %v", n, err)
		}
		for i, rs := range got {
			for j, r := range rs {
				checkSameResult(t, fmt.Sprintf("%d goroutines: goroutine %d call %d", n, i, j), r, cold)
			}
		}
		if st := cache.Stats(); st.Hits < uint64(n) {
			t.Errorf("%d goroutines: %d hits, want at least %d", n, st.Hits, n)
		}
	}
}

// TestWarmCacheProbOnlyRevalidates drives the interesting middle rung:
// probability drift that preserves the scenario structure must reuse the
// cut pool (not evict), converge at least as fast as a cold solve, and land
// on the same optimum.
func TestWarmCacheProbOnlyRevalidates(t *testing.T) {
	probs := []float64{0.005, 0.009, 0.001}
	in := cacheInput(t, probs)
	o := DefaultOptimizer()
	cache := &SolveCache{}
	if _, err := o.SolveCached(in, cache); err != nil {
		t.Fatal(err)
	}

	drifted := []float64{0.006, 0.008, 0.0012}
	in2 := cacheInput(t, drifted)
	warm, err := o.SolveCached(in2, cache)
	if err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Revalidations != 1 {
		t.Fatalf("stats = %+v, want 1 revalidation", st)
	}
	if st.Evictions != 0 {
		t.Fatalf("prob-only drift evicted the cache: %+v", st)
	}
	if st.LastDelta.Class != scenario.DeltaProbOnly {
		t.Fatalf("last delta %v, want prob-only", st.LastDelta.Class)
	}
	if st.CutsReused == 0 {
		t.Fatalf("revalidation reused no cuts")
	}

	cold, err := DefaultOptimizer().Solve(in2)
	if err != nil {
		t.Fatal(err)
	}
	// The warm solve takes a different path through cut space, so the
	// allocation vertex may differ — but both must reach the same optimal
	// loss bound (within the Benders convergence tolerance) feasibly.
	if diff := warm.Phi - cold.Phi; diff > epsilon+1e-9 || diff < -(epsilon+1e-9) {
		t.Fatalf("warm phi %v vs cold phi %v beyond epsilon", warm.Phi, cold.Phi)
	}
	if warm.Iterations > cold.Iterations {
		t.Fatalf("warm solve took %d iterations, cold %d — warm start regressed convergence",
			warm.Iterations, cold.Iterations)
	}
	checkFeasible(t, in2, warm.Alloc)
}

// TestWarmCacheStructuralEvicts: a structural scenario change must evict —
// reusing cuts indexed against a vanished class would be a silent-wrong-
// answer bug — and the post-eviction solve must match a cold solve exactly.
func TestWarmCacheStructuralEvicts(t *testing.T) {
	in := cacheInput(t, []float64{0.005, 0.009, 0.001})
	o := DefaultOptimizer()
	cache := &SolveCache{}
	if _, err := o.SolveCached(in, cache); err != nil {
		t.Fatal(err)
	}

	// Zeroing a fiber's probability removes every scenario cutting it.
	in2 := cacheInput(t, []float64{0.005, 0.009, 0})
	got, err := o.SolveCached(in2, cache)
	if err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Evictions != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want eviction + cold miss", st)
	}
	if st.LastDelta.Class != scenario.DeltaStructural {
		t.Fatalf("last delta %v, want structural", st.LastDelta.Class)
	}
	cold, err := DefaultOptimizer().Solve(in2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cold) {
		t.Fatalf("post-eviction solve diverges from cold solve")
	}
}

// TestWarmCacheInputChangeEvicts: changes outside the scenario set —
// demands, beta, solver budget — must evict even when the scenario set is
// bit-identical, because cut coefficients embed demands and capacities.
func TestWarmCacheInputChangeEvicts(t *testing.T) {
	probs := []float64{0.005, 0.009, 0.001}
	base := cacheInput(t, probs)
	o := DefaultOptimizer()

	mutate := []struct {
		name string
		in   func() *te.Input
		opt  func() *Optimizer
	}{
		{"demand", func() *te.Input {
			in := cacheInput(t, probs)
			in.Demands = te.Demands{7, 5}
			return in
		}, func() *Optimizer { return DefaultOptimizer() }},
		{"beta", func() *te.Input {
			in := cacheInput(t, probs)
			in.Beta = 0.98
			return in
		}, func() *Optimizer { return DefaultOptimizer() }},
		{"budget", func() *te.Input { return cacheInput(t, probs) }, func() *Optimizer {
			o2 := DefaultOptimizer()
			o2.BudgetUnits = 100000
			return o2
		}},
	}
	for _, mc := range mutate {
		cache := &SolveCache{}
		if _, err := o.SolveCached(base, cache); err != nil {
			t.Fatalf("%s: prime: %v", mc.name, err)
		}
		in2, o2 := mc.in(), mc.opt()
		got, err := o2.SolveCached(in2, cache)
		if err != nil {
			t.Fatalf("%s: %v", mc.name, err)
		}
		st := cache.Stats()
		if st.Evictions != 1 {
			t.Fatalf("%s change did not evict: %+v", mc.name, st)
		}
		if st.Hits != 0 || st.Revalidations != 0 {
			t.Fatalf("%s change reused cached state: %+v", mc.name, st)
		}
		cold, err := o2.Solve(in2)
		if err != nil {
			t.Fatalf("%s: cold: %v", mc.name, err)
		}
		if !reflect.DeepEqual(got, cold) {
			t.Fatalf("%s: post-eviction solve diverges from cold", mc.name)
		}
	}
}

// TestWarmCacheNilCache: a nil cache degenerates to Solve exactly.
func TestWarmCacheNilCache(t *testing.T) {
	in := cacheInput(t, []float64{0.005, 0.009, 0.001})
	o := DefaultOptimizer()
	got, err := o.SolveCached(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := DefaultOptimizer().Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SolveCached(nil cache) diverges from Solve")
	}
}

// TestWarmCacheMetrics: the core.warmcache.* series mirror the cache's own
// counters, and enabling metrics does not perturb results.
func TestWarmCacheMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	o := DefaultOptimizer()
	o.Metrics = reg
	cache := &SolveCache{}

	in := cacheInput(t, []float64{0.005, 0.009, 0.001})
	if _, err := o.SolveCached(in, cache); err != nil {
		t.Fatal(err)
	}
	if _, err := o.SolveCached(in, cache); err != nil {
		t.Fatal(err)
	}
	in2 := cacheInput(t, []float64{0.006, 0.009, 0.001})
	if _, err := o.SolveCached(in2, cache); err != nil {
		t.Fatal(err)
	}
	in3 := cacheInput(t, []float64{0.006, 0, 0.001})
	if _, err := o.SolveCached(in3, cache); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	want := map[string]int64{
		"core.warmcache.misses":      2,
		"core.warmcache.hits":        1,
		"core.warmcache.revalidated": 1,
		"core.warmcache.evictions":   1,
	}
	for name, v := range want {
		if got := snap.Counters[name]; got != v {
			t.Errorf("%s = %d, want %d", name, got, v)
		}
	}
	if snap.Counters["core.warmcache.cuts_reused"] == 0 {
		t.Errorf("core.warmcache.cuts_reused stayed 0 across a revalidation")
	}
}

// TestWarmCachePoolBounded: a probability-only revalidation re-derives a
// subproblem cut the pool already holds, so the pool kept across 200
// drifting B4 epochs must be exactly as large as after the first solve —
// not one duplicate larger per epoch.
func TestWarmCachePoolBounded(t *testing.T) {
	in := realInput(t, "B4", 5)
	rng := stats.NewRNG(9)
	base := make([]float64, len(in.Net.Fibers))
	for i := range base {
		base[i] = 0.0002 + 0.001*rng.Float64()
	}
	base[0] = 0.3
	o := DefaultOptimizer()
	cache := &SolveCache{}
	probs := make([]float64, len(base))
	first := 0
	for e := 0; e < 200; e++ {
		for i := range probs {
			probs[i] = base[i] * (1 + 0.003*(2*rng.Float64()-1))
		}
		set, err := scenario.Enumerate(probs, scenario.Options{Cutoff: 0, MaxFailures: 2, MaxScenarios: 200})
		if err != nil {
			t.Fatal(err)
		}
		in.Scenarios = set
		if _, err := o.SolveCached(in, cache); err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		if e == 0 {
			first = len(cache.cuts)
		}
	}
	if st := cache.Stats(); st.Revalidations != 199 {
		t.Fatalf("stats = %+v, want 199 revalidations", st)
	}
	if len(cache.cuts) != first {
		t.Fatalf("cut pool grew from %d to %d cuts over 199 revalidations", first, len(cache.cuts))
	}
}

func TestDistinctCuts(t *testing.T) {
	a := bendersCut{coef: []float64{0, 1, 2}, con: 3}
	b := bendersCut{coef: []float64{0, 1, 2}, con: 4}
	c := bendersCut{coef: []float64{0, 1, 5}, con: 3}
	got := distinctCuts([]bendersCut{a, b, a, c, b, {coef: []float64{0, 1, 2}, con: 3}})
	if want := []bendersCut{a, b, c}; !reflect.DeepEqual(got, want) {
		t.Fatalf("distinctCuts = %+v, want %+v", got, want)
	}
}

// TestRemapCuts covers the pure permutation logic, including refusal cases.
func TestRemapCuts(t *testing.T) {
	cuts := []bendersCut{{coef: []float64{1, 2, 3}, con: 4}}
	old := []string{"a", "b", "c"}

	got := remapCuts(cuts, old, []string{"c", "a", "b"})
	if got == nil {
		t.Fatal("pure permutation refused")
	}
	if want := []float64{3, 1, 2}; !reflect.DeepEqual(got[0].coef, want) {
		t.Fatalf("remapped coef %v, want %v", got[0].coef, want)
	}
	if got[0].con != 4 {
		t.Fatalf("constant not carried: %+v", got[0])
	}
	// Mutating the remapped cut must not touch the source pool.
	got[0].coef[0] = 99
	if cuts[0].coef[2] == 99 {
		t.Fatal("remap aliased the source coefficient array")
	}

	if remapCuts(cuts, old, []string{"a", "b"}) != nil {
		t.Fatal("length mismatch accepted")
	}
	if remapCuts(cuts, old, []string{"a", "b", "x"}) != nil {
		t.Fatal("unknown key accepted")
	}
	if remapCuts(cuts, []string{"a", "a", "c"}, []string{"a", "a", "c"}) != nil {
		t.Fatal("duplicate keys accepted")
	}
}

// FuzzWarmCache fuzzes the determinism contract: for any generatable
// instance, a cache hit on an unchanged scenario set must be bit-identical
// to the cold solve that populated it.
func FuzzWarmCache(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 2, 4, 100, 8, 50, 2, 1, 0, 2, 1, 9, 9, 9, 30, 40, 50, 1, 0})
	f.Add([]byte{5, 2, 0, 3, 1, 4, 77, 12, 200, 3, 2, 2, 150, 150, 10, 20, 30, 40, 50, 60, 255, 128})
	f.Add([]byte{2, 9, 1, 7, 3, 60, 60, 2, 2, 80, 10, 10, 5, 5, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		in := fuzzInput(t, r)
		o := DefaultOptimizer()
		o.BudgetUnits = int64(r.byte()) << 2 // 0 = unlimited, else small budgets
		cold, err := o.Solve(in)
		if err != nil {
			return // validation / infeasibility errors are legitimate
		}
		cache := &SolveCache{}
		first, err := o.SolveCached(in, cache)
		if err != nil {
			t.Fatalf("SolveCached cold errored where Solve succeeded: %v", err)
		}
		if !reflect.DeepEqual(first, cold) {
			t.Fatalf("cold SolveCached diverges from Solve")
		}
		hit, err := o.SolveCached(in, cache)
		if err != nil {
			t.Fatalf("cache hit errored: %v", err)
		}
		if !reflect.DeepEqual(hit, cold) {
			t.Fatalf("cache hit diverges from cold solve (truncated=%v fallback=%v)",
				cold.Truncated, cold.Fallback)
		}
		st := cache.Stats()
		if st.Hits != 1 || st.Misses != 1 {
			t.Fatalf("stats = %+v, want exactly 1 miss + 1 hit", st)
		}
	})
}
