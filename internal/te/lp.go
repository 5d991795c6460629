package te

import (
	"fmt"
	"sort"

	"prete/internal/lp"
	"prete/internal/routing"
	"prete/internal/topology"
)

// coverageRow demands that flow Flow's surviving tunnels Tunnels carry
// (1 - Phi) of its demand — one instance of constraint (4).
type coverageRow struct {
	Flow    routing.FlowID
	Tunnels []routing.TunnelID
}

// solveMinMaxLoss solves the shared core of every optimizing scheme here:
//
//	min Phi
//	s.t. per link: total allocation crossing it <= capacity   (constraint 3)
//	     per row:  sum of surviving allocations >= (1-Phi) d  (constraint 4)
//	     0 <= Phi, 0 <= a
//
// It returns the allocation and the optimal Phi. capOverride (optional)
// replaces the capacity of specific links — partially restored links in
// ARROW's model.
func solveMinMaxLoss(net *topology.Network, ts *routing.TunnelSet, demands Demands, rows []coverageRow, capOverride map[topology.LinkID]float64) (Allocation, float64, error) {
	// The objective is lexicographic in spirit: first minimize the max loss
	// Phi, then — because a bare min-Phi LP is content to leave every flow
	// at exactly (1-Phi) of its demand — maximize the total satisfied
	// fraction sum_f s_f, s_f = min(1, sum_t a_{f,t}/d_f). A single LP with
	// Phi weighted above the largest possible satisfaction gain gives the
	// same Phi and a non-degenerate allocation.
	prob := lp.NewProblem()
	phiWeight := float64(len(ts.Flows)+1) * 10
	phi := prob.AddVar(phiWeight, "phi")
	tunnelVar := make(map[routing.TunnelID]int, len(ts.Tunnels))
	for _, t := range ts.Tunnels {
		tunnelVar[t.ID] = prob.AddVar(0, "a")
	}
	// capacity rows over all tunnels, in deterministic link order so
	// degenerate optima resolve to the same vertex run-to-run
	linkTerms := make(map[topology.LinkID][]lp.Term)
	for _, t := range ts.Tunnels {
		v := tunnelVar[t.ID]
		for _, lid := range t.Links {
			linkTerms[lid] = append(linkTerms[lid], lp.Term{Var: v, Coeff: 1})
		}
	}
	linkIDs := make([]int, 0, len(linkTerms))
	for lid := range linkTerms {
		linkIDs = append(linkIDs, int(lid))
	}
	sort.Ints(linkIDs)
	for _, lid := range linkIDs {
		l := topology.LinkID(lid)
		capacity := net.Link(l).Capacity
		if c, ok := capOverride[l]; ok {
			capacity = c
		}
		if _, err := prob.AddConstraint(linkTerms[l], lp.LE, capacity, "cap"); err != nil {
			return nil, 0, err
		}
	}
	// coverage rows: sum a + d*Phi >= d
	for _, row := range rows {
		d := demands[row.Flow]
		if d <= 0 {
			continue
		}
		terms := []lp.Term{{Var: phi, Coeff: d}}
		for _, tid := range row.Tunnels {
			terms = append(terms, lp.Term{Var: tunnelVar[tid], Coeff: 1})
		}
		if _, err := prob.AddConstraint(terms, lp.GE, d, "cov"); err != nil {
			return nil, 0, err
		}
	}
	// Phi <= 1: loss is normalized (constraint 8)
	if err := prob.AddUpperBound(phi, 1, "phi<=1"); err != nil {
		return nil, 0, err
	}
	// Satisfaction variables: s_f <= 1, s_f <= sum_t a_{f,t} / d_f over the
	// flow's full tunnel set; objective rewards sum s_f.
	for _, fl := range ts.Flows {
		d := demands[fl.ID]
		if d <= 0 {
			continue
		}
		s := prob.AddVar(-1, "s")
		if err := prob.AddUpperBound(s, 1, "s<=1"); err != nil {
			return nil, 0, err
		}
		terms := []lp.Term{{Var: s, Coeff: d}}
		for _, tid := range ts.TunnelsOf(fl.ID) {
			terms = append(terms, lp.Term{Var: tunnelVar[tid], Coeff: -1})
		}
		if _, err := prob.AddConstraint(terms, lp.LE, 0, "sat"); err != nil {
			return nil, 0, err
		}
	}
	sol := prob.Solve()
	if sol.Status != lp.Optimal {
		return nil, 0, fmt.Errorf("te: min-max-loss LP %v", sol.Status)
	}
	alloc := make(Allocation, len(tunnelVar))
	for tid, v := range tunnelVar {
		if x := sol.X[v]; x > 1e-9 {
			alloc[tid] = x
		}
	}
	return alloc, sol.X[phi], nil
}

// MinMaxLossPlan computes the failure-oblivious optimal plan: every flow
// covered by all of its tunnels that survive the (possibly empty) cut set.
// It is the recomputation step of reactive schemes and the planning step of
// restoration-based ones.
func MinMaxLossPlan(in *Input, cut map[topology.FiberID]bool) (*Plan, error) {
	return MinMaxLossPlanWithCaps(in, cut, nil)
}

// MinMaxLossPlanWithCaps is MinMaxLossPlan with per-link capacity
// overrides: ARROW's restoration model re-plans on a network where links
// that rode cut fibers come back at a fraction of their capacity.
func MinMaxLossPlanWithCaps(in *Input, cut map[topology.FiberID]bool, capOverride map[topology.LinkID]float64) (*Plan, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	rows := make([]coverageRow, 0, len(in.Tunnels.Flows))
	for _, fl := range in.Tunnels.Flows {
		var avail []routing.TunnelID
		for _, tid := range in.Tunnels.TunnelsOf(fl.ID) {
			if in.Tunnels.Tunnel(tid).AvailableUnder(cut) {
				avail = append(avail, tid)
			}
		}
		if len(avail) == 0 {
			continue // flow entirely disconnected; it contributes full loss
		}
		rows = append(rows, coverageRow{Flow: fl.ID, Tunnels: avail})
	}
	alloc, phi, err := solveMinMaxLoss(in.Net, in.Tunnels, in.Demands, rows, capOverride)
	if err != nil {
		return nil, err
	}
	return &Plan{Alloc: alloc, MaxLoss: phi, Tunnels: in.Tunnels}, nil
}
