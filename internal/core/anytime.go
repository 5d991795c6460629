package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"prete/internal/te"
	"prete/internal/topology"
)

// errBudgetExhausted is the internal signal that a sub-solve returned
// lp.Truncated: the Benders loop stops and returns its incumbent instead of
// propagating an error.
var errBudgetExhausted = errors.New("core: compute budget exhausted")

// Truncation is the typed error for a solve whose node or work budget
// expired before any feasible incumbent existed at all. Callers distinguish
// it from genuine infeasibility with errors.As; the anytime Solve path never
// returns it (it falls back to heuristicPlan instead), but SolveExact —
// which certifies optimality or nothing — does.
type Truncation struct {
	// Stage names the solve that was cut short ("exact", "benders").
	Stage string
	// Limit names what expired ("nodes", "pivots", "budget").
	Limit string
}

// Error implements error.
func (t *Truncation) Error() string {
	return fmt.Sprintf("core: %s solve truncated (%s limit) before any feasible incumbent", t.Stage, t.Limit)
}

// heuristicPlan is the degradation ladder's third rung: a proportional
// allocation computed in one linear pass, used when the compute budget
// expires before Benders finds any feasible incumbent. Each flow's demand is
// split equally across its tunnels, then the whole allocation is scaled down
// by the worst link overload, so the result always satisfies the capacity
// constraints (te.CheckCapacity) — a valid, installable plan, just not an
// optimized one. The returned phi is the worst per-class loss of the plan
// over all failure-equivalence classes (a conservative upper bound on the
// max loss the optimizer would have reported).
//
// The construction is deterministic: tunnels and classes are walked in their
// canonical slice order, so equal inputs produce bit-identical plans.
func (sm *solveModel) heuristicPlan() (te.Allocation, float64) {
	in := sm.in
	alloc := make(te.Allocation)
	for _, fl := range in.Tunnels.Flows {
		d := in.Demands[fl.ID]
		tids := in.Tunnels.TunnelsOf(fl.ID)
		if d <= 0 || len(tids) == 0 {
			continue
		}
		share := d / float64(len(tids))
		for _, tid := range tids {
			alloc[tid] += share
		}
	}
	// Scale the whole allocation down by the worst overload so every link
	// respects its capacity. Loads accumulate in tunnel-slice order, keeping
	// the floating-point sums (and therefore the plan) reproducible.
	loads := make(map[topology.LinkID]float64)
	for _, tn := range in.Tunnels.Tunnels {
		amt := alloc[tn.ID]
		if amt <= 0 {
			continue
		}
		for _, lid := range tn.Links {
			loads[lid] += amt
		}
	}
	worst := 1.0
	for lid, load := range loads {
		c := in.Net.Link(lid).Capacity
		if c <= 0 {
			worst = 0 // a zero-capacity link can carry nothing
			break
		}
		if r := load / c; r > worst {
			worst = r
		}
	}
	if worst != 1 {
		scale := 0.0
		if worst > 0 {
			scale = 1 / worst
		}
		for tid, amt := range alloc {
			v := amt * scale
			if v > 1e-12 {
				alloc[tid] = v
			} else {
				delete(alloc, tid)
			}
		}
	}
	// phi: worst loss over every equivalence class under this allocation.
	var phi float64
	for _, c := range sm.classes {
		d := in.Demands[c.Flow]
		if d <= 0 {
			continue
		}
		var delivered float64
		for _, tid := range c.Avail {
			delivered += alloc[tid]
		}
		if delivered > d {
			delivered = d
		}
		if loss := 1 - delivered/d; loss > phi {
			phi = loss
		}
	}
	return alloc, phi
}

// ParseBudget parses the CLI -budget syntax "UNITS[:TIMEOUT]":
//
//	-budget 5000          5000 deterministic work units, no deadline
//	-budget 5000:150ms    5000 units plus a 150 ms wall-clock safety net
//	-budget :2s           wall-clock deadline only (nondeterministic)
//	-budget 0             unlimited (the default)
//
// Units are the deterministic currency (simplex pivots + branch-and-bound
// nodes + Benders iterations); the timeout is the production safety net and
// makes runs wall-clock-dependent — see lp.Budget.
func ParseBudget(s string) (units int64, timeout time.Duration, err error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, 0, nil
	}
	unitPart, durPart, hasDur := strings.Cut(s, ":")
	if unitPart != "" {
		units, err = strconv.ParseInt(unitPart, 10, 64)
		if err != nil || units < 0 {
			return 0, 0, fmt.Errorf("core: bad budget units %q (want a nonnegative integer)", unitPart)
		}
	}
	if hasDur {
		timeout, err = time.ParseDuration(durPart)
		if err != nil || timeout < 0 {
			return 0, 0, fmt.Errorf("core: bad budget timeout %q (want a Go duration like 150ms)", durPart)
		}
	}
	return units, timeout, nil
}
