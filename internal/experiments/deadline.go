package experiments

import (
	"fmt"
	"io"

	"prete/internal/core"
	"prete/internal/te"
)

func init() {
	register("deadline", "Deadline-bounded anytime solves: objective gap and degradation rung vs compute budget", deadline)
}

// deadline sweeps the anytime optimizer's compute budget on real topologies
// and reports, per (topology, budget) cell, which degradation-ladder rung the
// solve landed on and how far its objective sits from the unlimited optimum.
// Budgets are deterministic work units (simplex pivots + branch-and-bound
// nodes + Benders iterations, see lp.Budget) — no wall clock anywhere — so
// every row replays bit-identically from the seed at any parallelism.
func deadline(w io.Writer, opts Options) error {
	topos := []string{"B4", "IBM"}
	// The ladder brackets both rung boundaries of an unlimited solve (B4:
	// first incumbent at 202 units, done at 357; IBM: 274 and 467).
	budgets := []int64{1, 25, 100, 200, 300, 600, 1600, 0}
	if opts.Quick {
		topos = []string{"B4"}
		budgets = []int64{1, 100, 300, 0}
	}
	header(w, "topology", "budget", "phi", "gap", "rung", "first_incumbent", "work_units")
	for _, topo := range topos {
		in, err := deadlineInput(topo, opts.Seed)
		if err != nil {
			return err
		}
		ref, err := solveBudgeted(in, 0, opts)
		if err != nil {
			return fmt.Errorf("deadline %s unlimited: %w", topo, err)
		}
		for _, units := range budgets {
			res := ref
			if units != 0 {
				if res, err = solveBudgeted(in, units, opts); err != nil {
					return fmt.Errorf("deadline %s budget=%d: %w", topo, units, err)
				}
			}
			if err := te.CheckCapacity(in.Net, &te.Plan{Alloc: res.Alloc, Tunnels: in.Tunnels}); err != nil {
				return fmt.Errorf("deadline %s budget=%d produced an infeasible plan: %w", topo, units, err)
			}
			rung := "optimal"
			switch {
			case res.Fallback:
				rung = "heuristic"
			case res.Truncated:
				rung = "truncated"
			}
			budgetLabel := fmt.Sprintf("%d", units)
			if units == 0 {
				budgetLabel = "inf"
			}
			fmt.Fprintf(w, "%s\t%s\t%.4f\t%+.4f\t%s\t%d\t%d\n",
				topo, budgetLabel, res.Phi, res.Phi-ref.Phi, rung,
				res.FirstIncumbentUnits, res.WorkUnits)
		}
	}
	fmt.Fprintln(w, "# rung: optimal > truncated (feasible incumbent, uncertified) > heuristic (proportional fallback) — every plan above passed CheckCapacity")
	fmt.Fprintln(w, "# budgets are deterministic work units; equal budgets replay bit-identically at any -parallel setting")
	return nil
}

// deadlineInput builds the sweep's TE instance: incremental's epoch-0
// instance with its double-failure scenarios enumerated.
func deadlineInput(topo string, seed uint64) (*te.Input, error) {
	base, err := incrementalBase(topo, seed)
	if err != nil {
		return nil, err
	}
	return base.input(base.probs)
}

func solveBudgeted(in *te.Input, units int64, opts Options) (*core.Result, error) {
	opts.Budget = units
	return budgeted(core.DefaultOptimizer(), opts).Solve(in)
}
