package experiments

import (
	"fmt"
	"io"
	"math"

	"prete/internal/core"
	"prete/internal/routing"
	"prete/internal/scenario"
	"prete/internal/stats"
	"prete/internal/te"
	"prete/internal/topology"
)

func init() {
	register("incremental", "Cross-epoch incremental solving: warm-start cache work vs probability-drift magnitude, cache on/off", incremental)
}

// incremental sweeps the cross-epoch warm-start cache (core.SolveCache)
// against the magnitude of per-epoch probability drift: each cell replays a
// short epoch sequence whose calibrated failure probabilities drift by a
// fixed relative magnitude between epochs (0 = quiet network, "structural"
// = a fiber's probability collapses to zero each epoch, changing the
// scenario set's structure), once with the cache off (every epoch a cold
// solve) and once with it on. Reported per cell: the scenario-delta classes
// the cache observed, its hit/revalidation/eviction counters, the cuts
// carried across epochs, total Benders iterations and deterministic work
// units, and the worst objective gap against the cold solve of the same
// epoch — which must stay within the optimizer's epsilon, since warm starts
// move work, never answers. Everything is seeded and unit-denominated, so
// rows replay bit-identically at any parallelism.
func incremental(w io.Writer, opts Options) error {
	type driftCase struct {
		label  string
		mutate func(epoch int, probs []float64)
	}
	rel := func(eps float64) func(int, []float64) {
		return func(epoch int, probs []float64) {
			for i := range probs {
				// Alternate drift direction per (fiber, epoch) so the vector
				// wanders instead of growing monotonically.
				if (i+epoch)%2 == 0 {
					probs[i] *= 1 + eps
				} else {
					probs[i] *= 1 - eps
				}
			}
		}
	}
	cases := []driftCase{
		{"0", func(int, []float64) {}},
		{"1e-6", rel(1e-6)},
		{"1e-4", rel(1e-4)},
		{"1e-2", rel(1e-2)},
		{"structural", func(epoch int, probs []float64) {
			probs[(epoch-1)%len(probs)] = 0
		}},
	}
	epochs := 4
	if opts.Quick {
		cases = []driftCase{cases[0], cases[2], cases[4]}
		epochs = 3
	}
	base, err := incrementalBase("B4", opts.Seed)
	if err != nil {
		return err
	}
	header(w, "drift", "cache", "solves", "deltas", "hits", "reval", "evict", "cuts_reused", "iters", "work_units", "phi_gap")
	for _, dc := range cases {
		coldPhi, coldIters, coldWork, err := incrementalRun(base, dc.mutate, epochs, nil, opts)
		if err != nil {
			return fmt.Errorf("incremental %s cold: %w", dc.label, err)
		}
		cache := &core.SolveCache{}
		warmPhi, warmIters, warmWork, err := incrementalRun(base, dc.mutate, epochs, cache, opts)
		if err != nil {
			return fmt.Errorf("incremental %s warm: %w", dc.label, err)
		}
		var gap float64
		for e := range coldPhi {
			gap = math.Max(gap, math.Abs(warmPhi[e]-coldPhi[e]))
		}
		st := cache.Stats()
		deltas := fmt.Sprintf("%d/%d/%d", st.Misses, st.Revalidations, st.Hits)
		fmt.Fprintf(w, "%s\toff\t%d\t-\t-\t-\t-\t-\t%d\t%d\t0\n",
			dc.label, epochs, coldIters, coldWork)
		fmt.Fprintf(w, "%s\ton\t%d\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%.2e\n",
			dc.label, epochs, deltas, st.Hits, st.Revalidations, st.Evictions,
			st.CutsReused, warmIters, warmWork, gap)
	}
	fmt.Fprintln(w, "# deltas: cold-miss/prob-only-revalidation/unchanged-hit solve counts the cache observed")
	fmt.Fprintln(w, "# phi_gap: worst |phi_warm - phi_cold| across the epoch sequence; warm starts move work, never answers")
	fmt.Fprintln(w, "# iters/work_units are deterministic (Benders iterations, lp.Budget units); rows replay bit-identically at any -parallel")
	return nil
}

// incrementalInstance is the fixed part of the epoch sequence: topology,
// tunnels, demands, and the epoch-0 probability vector the drift mutates.
type incrementalInstance struct {
	net     *topology.Network
	tunnels *routing.TunnelSet
	demands te.Demands
	probs   []float64
}

// incrementalBase builds the sweep's TE instance the same way the deadline
// sweep does (4 tunnels per flow, seeded per-fiber probabilities), but keeps
// the probability vector so each epoch can re-enumerate after drifting it.
func incrementalBase(topo string, seed uint64) (*incrementalInstance, error) {
	net, err := topology.ByName(topo)
	if err != nil {
		return nil, err
	}
	ts, err := routing.BuildTunnels(net, routing.Flows(net), 4)
	if err != nil {
		return nil, err
	}
	rng := stats.NewRNG(seed)
	probs := make([]float64, len(net.Fibers))
	for i := range probs {
		probs[i] = 0.001 + 0.02*rng.Float64()
	}
	demands := make(te.Demands, len(ts.Flows))
	for i := range demands {
		demands[i] = 20 + 10*rng.Float64()
	}
	return &incrementalInstance{net: net, tunnels: ts, demands: demands, probs: probs}, nil
}

// incrementalRun replays one epoch sequence: drift the probabilities (epoch
// 0 uses the base vector as-is), enumerate the scenario set, solve — through
// cache when non-nil, cold otherwise — and accumulate the per-epoch
// objectives plus the sequence's total iterations and work units.
func incrementalRun(base *incrementalInstance, mutate func(int, []float64), epochs int, cache *core.SolveCache, opts Options) ([]float64, int64, int64, error) {
	probs := append([]float64(nil), base.probs...)
	o := core.DefaultOptimizer()
	o.BudgetUnits = opts.Budget
	o.Metrics = opts.Metrics
	phis := make([]float64, 0, epochs)
	var iters, work int64
	for e := 0; e < epochs; e++ {
		if e > 0 {
			mutate(e, probs)
		}
		set, err := scenario.Enumerate(probs, scenario.Options{Cutoff: 1e-9, MaxFailures: 2, MaxScenarios: 200})
		if err != nil {
			return nil, 0, 0, err
		}
		in := &te.Input{Net: base.net, Tunnels: base.tunnels, Demands: base.demands, Scenarios: set, Beta: 0.99}
		var res *core.Result
		served := false
		if cache != nil {
			prevHits := cache.Stats().Hits
			res, err = o.SolveCached(in, cache)
			served = err == nil && cache.Stats().Hits > prevHits
		} else {
			res, err = o.Solve(in)
		}
		if err != nil {
			return nil, 0, 0, err
		}
		if err := te.CheckCapacity(base.net, &te.Plan{Alloc: res.Alloc, Tunnels: base.tunnels}); err != nil {
			return nil, 0, 0, fmt.Errorf("epoch %d produced an infeasible plan: %w", e, err)
		}
		phis = append(phis, res.Phi)
		// A cache hit returns the previous epoch's result object, whose
		// counters describe the solve that produced it — the epoch itself
		// performed no optimizer work, which is what this sweep measures.
		if !served {
			iters += int64(res.Iterations)
			work += res.WorkUnits
		}
	}
	return phis, iters, work, nil
}
