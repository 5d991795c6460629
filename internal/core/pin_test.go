package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"testing"

	"prete/internal/routing"
	"prete/internal/scenario"
	"prete/internal/stats"
	"prete/internal/te"
	"prete/internal/topology"
)

// driftEpochs runs B4 under te.DefaultClassSpec with one SolveCache per
// tier over n probability-only epochs: every epoch each p_i drifts by up
// to ±0.3% (its multiplier clamped to [0.9, 1.1]), and fiber 0 is held at
// p 0.3 so some flows lose scenario mass and Phi is not trivial. Every
// enumeration keeps all 191 scenarios (cutoff 0), so the structure never
// moves. visit sees each epoch's input and classed result; the tier caches
// are returned.
func driftEpochs(t *testing.T, n int, visit func(*te.Input, *ClassedResult)) []*SolveCache {
	t.Helper()
	in := realInput(t, "B4", 5)
	rng := stats.NewRNG(2025)
	base := make([]float64, len(in.Net.Fibers))
	for i := range base {
		base[i] = 0.0002 + 0.001*rng.Float64()
	}
	base[0] = 0.3
	in.Demands = in.Demands.Scale(8)
	mult := make([]float64, len(base))
	for i := range mult {
		mult[i] = 1
	}
	spec := te.DefaultClassSpec()
	caches := make([]*SolveCache, len(spec.Tiers))
	for k := range caches {
		caches[k] = &SolveCache{}
	}
	opt := DefaultOptimizer()
	probs := make([]float64, len(base))
	for e := 0; e < n; e++ {
		for i := range probs {
			if e > 0 && i != 0 {
				mult[i] = math.Min(1.1, math.Max(0.9, mult[i]*(1+0.003*(2*rng.Float64()-1))))
			}
			probs[i] = base[i] * mult[i]
		}
		set, err := scenario.Enumerate(probs, scenario.Options{Cutoff: 0, MaxFailures: 2, MaxScenarios: 200})
		if err != nil {
			t.Fatal(err)
		}
		in.Scenarios = set
		cr, err := opt.SolveClassedCached(in, spec, caches)
		if err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		visit(in, cr)
	}
	return caches
}

// TestSolveClassedDriftPinned pins the classed solve over 80 drifting
// epochs bit for bit: FNV-64a over every tier's Phi, ExpectedLoss,
// Benders iterations, work units and allocation (ascending tunnel order)
// of every epoch. The work counts pin the revalidation path's LP effort,
// which no traced benchmark gate reaches. Every tier's ExpectedLoss must
// also equal the scenario loop's, bit for bit. Tier 0 revalidates
// its cut pool every epoch after the first; tiers 1-2 re-solve on a
// residual network that moves with the tier above. A change to how
// survival is tested, how classes are built or how the cut pool is kept
// must leave the hash alone.
func TestSolveClassedDriftPinned(t *testing.T) {
	h := fnv.New64a()
	put := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	nontrivial := false
	caches := driftEpochs(t, 80, func(in *te.Input, cr *ClassedResult) {
		for _, tier := range cr.Tiers {
			if want := scenarioLoss(in, tier.Res.Alloc, tier.Demands, tier.Offered); tier.ExpectedLoss != want {
				t.Errorf("tier %s expected loss %v, scenario loop %v", tier.Name, tier.ExpectedLoss, want)
			}
			put(math.Float64bits(tier.Res.Phi))
			put(math.Float64bits(tier.ExpectedLoss))
			put(uint64(tier.Res.Iterations))
			put(uint64(tier.Res.WorkUnits))
			tids := make([]routing.TunnelID, 0, len(tier.Res.Alloc))
			for tid := range tier.Res.Alloc {
				tids = append(tids, tid)
			}
			slices.Sort(tids)
			for _, tid := range tids {
				put(uint64(tid))
				put(math.Float64bits(tier.Res.Alloc[tid]))
			}
			if tier.Res.Phi > 0 && tier.Res.Phi < 1 {
				nontrivial = true
			}
		}
	})
	if !nontrivial {
		t.Error("no tier of any epoch has 0 < Phi < 1; the pin exercises nothing")
	}
	if st := caches[0].Stats(); st.Misses != 1 || st.Revalidations != 79 {
		t.Errorf("tier 0 cache: %d misses, %d revalidations; want 1 and 79", st.Misses, st.Revalidations)
	}
	const want = 0x06a63f4eca81398d
	if got := h.Sum64(); got != want {
		t.Errorf("classed drift hash %016x, pinned %016x", got, uint64(want))
	}
}

// TestUpdateTunnelsPinned pins Algorithm 1's output on every fiber of B4,
// IBM and TWAN at ratios 1 and 5: FNV-64a over each update's added
// tunnels (flow, then links) in the order they were established, and its
// affected flows. A change to the path search must leave every path and
// its rank alone.
func TestUpdateTunnelsPinned(t *testing.T) {
	h := fnv.New64a()
	put := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	added := 0
	for _, topo := range []string{"B4", "IBM", "TWAN"} {
		net, err := topology.ByName(topo)
		if err != nil {
			t.Fatal(err)
		}
		ts, err := routing.BuildTunnels(net, routing.Flows(net), 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, ratio := range []float64{1, 5} {
			for _, f := range net.Fibers {
				res, err := UpdateTunnels(ts, f.ID, ratio)
				if err != nil {
					t.Fatal(err)
				}
				fresh := res.Tunnels.Tunnels[ts.NumTunnels():]
				put(uint64(len(fresh)))
				for _, tun := range fresh {
					put(uint64(tun.Flow))
					put(uint64(len(tun.Links)))
					for _, lid := range tun.Links {
						put(uint64(lid))
					}
				}
				put(uint64(len(res.AffectedFlows)))
				for _, fl := range res.AffectedFlows {
					put(uint64(fl))
				}
				added += len(fresh)
			}
		}
	}
	if added == 0 {
		t.Fatal("no update established a tunnel; the pin exercises nothing")
	}
	const want = 0xc668460526a3ee1b
	if got := h.Sum64(); got != want {
		t.Errorf("tunnel update hash %016x, pinned %016x", got, uint64(want))
	}
}

// TestUpdateTunnelsAllocBounded gates what one Algorithm 1 call allocates:
// B4, fiber 2, ratio 1. Yen's spur searches share one pair of ban sets and
// one Dijkstra state, whose heap holds its entries unboxed. The ceilings
// are 5% over what was measured when they were set on go1.24 linux/amd64:
// 2,400 allocations, of 126,232 B (132,856 B under -race, whose maps take
// more); before, the call took 293,960 B in 7,481.
func TestUpdateTunnelsAllocBounded(t *testing.T) {
	net, err := topology.ByName("B4")
	if err != nil {
		t.Fatal(err)
	}
	ts, err := routing.BuildTunnels(net, routing.Flows(net), 4)
	if err != nil {
		t.Fatal(err)
	}
	const maxBytes, maxAllocs = 139_498, 2_520
	// The fewest of five calls: noise (a GC cycle's own allocations) only
	// adds.
	bytes, allocs := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for k := 0; k < 5; k++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := UpdateTunnels(ts, 2, 1); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		allocs = min(allocs, after.Mallocs-before.Mallocs)
	}
	t.Logf("UpdateTunnels(B4, fiber 2): %d B in %d allocations", bytes, allocs)
	if bytes > maxBytes || allocs > maxAllocs {
		t.Errorf("UpdateTunnels(B4, fiber 2): %d B in %d allocations, ceilings %d B and %d", bytes, allocs, maxBytes, maxAllocs)
	}
}
