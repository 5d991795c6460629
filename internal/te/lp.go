package te

import (
	"fmt"

	"prete/internal/lp"
	"prete/internal/routing"
	"prete/internal/topology"
)

// Phi is the column of the loss bound in every AllocLP.
const Phi = 0

// AllocLP lays out the part every allocation LP of this repository shares
// (Eqns. 2-4), by position: column Phi is the loss bound, column 1+t is
// tunnel t's allocation (TunnelIDs are dense indices), and rows
// 0..len(Caps)-1 are the capacity rows (3), one per link that carries a
// tunnel, in link order with terms in tunnel order. Callers append their own
// columns and rows through the embedded Problem. The LPs are degenerate at
// their optimum, so this order decides which optimal vertex the simplex
// returns: changing it changes plans (lp.TestCoreLPsUnchanged pins it).
type AllocLP struct {
	*lp.Problem
	// Caps[r] is the capacity on the right-hand side of row r.
	Caps    []float64
	tunnels int
	terms   []lp.Term // the rows' terms, each row a capped window of it
}

// Size counts what a caller adds to an AllocLP after NewAllocLP: columns,
// rows, and the terms of those rows.
type Size struct{ Vars, Rows, Terms int }

// Coverage counts one AddCoverage row over tunnels.
func (s *Size) Coverage(tunnels []routing.TunnelID) {
	s.Rows++
	s.Terms += 1 + len(tunnels)
}

// Satisfaction counts one AddSatisfaction column and row over tunnels.
func (s *Size) Satisfaction(tunnels []routing.TunnelID) {
	s.Vars++
	s.Coverage(tunnels)
}

// NewAllocLP adds the shared columns and the capacity rows to prob, which
// must be empty, and reserves room for the extra columns, rows and terms
// the caller adds after them: an LP whose final size its caller states is
// allocated once. phiCost is Phi's objective coefficient.
func NewAllocLP(prob *lp.Problem, phiCost float64, net *topology.Network, ts *routing.TunnelSet, extra Size) *AllocLP {
	m := &AllocLP{Problem: prob, tunnels: len(ts.Tunnels)}
	// end[lid+1] counts the terms of link lid's row, then (summed) ends them
	// in one array shared by every row: capacity rows first, in link order.
	end := make([]int, len(net.Links)+1)
	for _, t := range ts.Tunnels {
		for _, lid := range t.Links {
			end[lid+1]++
		}
	}
	rows := 0
	for lid := range net.Links {
		if end[lid+1] > 0 {
			rows++
		}
		end[lid+1] += end[lid]
	}
	prob.Reserve(1+len(ts.Tunnels)+extra.Vars, rows+extra.Rows)
	prob.AddVar(phiCost)
	for range ts.Tunnels {
		prob.AddVar(0)
	}
	capTerms := end[len(net.Links)]
	m.terms = make([]lp.Term, capTerms, capTerms+extra.Terms)
	next := end[:len(net.Links)] // each row's fill cursor, which ends at the next row's start
	for _, t := range ts.Tunnels {
		for _, lid := range t.Links {
			m.terms[next[lid]] = lp.Term{Var: m.Tunnel(t.ID), Coeff: 1}
			next[lid]++
		}
	}
	m.Caps = make([]float64, 0, rows)
	start := 0
	for lid, stop := range next {
		if stop > start {
			capacity := net.Links[lid].Capacity
			prob.AddConstraint(m.terms[start:stop:stop], lp.LE, capacity)
			m.Caps = append(m.Caps, capacity)
		}
		start = stop
	}
	return m
}

// Tunnel returns the column of tunnel t's allocation.
func (m *AllocLP) Tunnel(t routing.TunnelID) int { return 1 + int(t) }

// AddCoverage adds one instance of constraint (4), sum of the surviving
// tunnels' allocations + d*loss >= d, and returns its row. lossVar is Phi,
// or a per-class loss column in the monolithic MIP.
func (m *AllocLP) AddCoverage(lossVar int, d float64, tunnels []routing.TunnelID) int {
	return m.AddConstraint(m.row(lossVar, d, 1, tunnels), lp.GE, d)
}

// AddSatisfaction adds a column s in [0, 1] rewarded with weight in the
// (minimized) objective and the row d*s - sum of the tunnels' allocations
// <= 0: s is the fraction of demand d the tunnels carry.
func (m *AllocLP) AddSatisfaction(weight, d float64, tunnels []routing.TunnelID) {
	s := m.AddVar(-weight)
	m.AddUpperBound(s, 1)
	m.AddConstraint(m.row(s, d, -1, tunnels), lp.LE, 0)
}

// row is d*lead + sign * sum of the tunnels' allocations, appended to the
// LP's term array.
func (m *AllocLP) row(lead int, d, sign float64, tunnels []routing.TunnelID) []lp.Term {
	start := len(m.terms)
	m.terms = append(m.terms, lp.Term{Var: lead, Coeff: d})
	for _, tid := range tunnels {
		m.terms = append(m.terms, lp.Term{Var: m.Tunnel(tid), Coeff: sign})
	}
	return m.terms[start:len(m.terms):len(m.terms)]
}

// Allocation reads the tunnel columns of a solution.
func (m *AllocLP) Allocation(sol *lp.Solution) Allocation {
	alloc := make(Allocation)
	for t := routing.TunnelID(0); int(t) < m.tunnels; t++ {
		if x := sol.X[m.Tunnel(t)]; x > 1e-9 {
			alloc[t] = x
		}
	}
	return alloc
}

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
// It returns the allocation and the optimal Phi.
func solveMinMaxLoss(net *topology.Network, ts *routing.TunnelSet, demands Demands, rows []coverageRow) (Allocation, float64, error) {
	// The objective is lexicographic in spirit: first minimize the max loss
	// Phi, then — because a bare min-Phi LP is content to leave every flow
	// at exactly (1-Phi) of its demand — maximize the total satisfied
	// fraction sum_f s_f, s_f = min(1, sum_t a_{f,t}/d_f). A single LP with
	// Phi weighted above the largest possible satisfaction gain gives the
	// same Phi and a non-degenerate allocation.
	var size Size
	for _, row := range rows {
		if demands[row.Flow] > 0 {
			size.Coverage(row.Tunnels)
		}
	}
	for _, fl := range ts.Flows {
		if demands[fl.ID] > 0 {
			size.Satisfaction(ts.TunnelsOf(fl.ID))
		}
	}
	m := NewAllocLP(lp.NewProblem(), float64(len(ts.Flows)+1)*10, net, ts, size)
	for _, row := range rows {
		if d := demands[row.Flow]; d > 0 {
			m.AddCoverage(Phi, d, row.Tunnels)
		}
	}
	// Phi <= 1: loss is normalized (constraint 8)
	m.AddUpperBound(Phi, 1)
	// One satisfaction column per flow over its full tunnel set.
	for _, fl := range ts.Flows {
		if d := demands[fl.ID]; d > 0 {
			m.AddSatisfaction(1, d, ts.TunnelsOf(fl.ID))
		}
	}
	sol := m.Solve()
	if sol.Status != lp.Optimal {
		return nil, 0, fmt.Errorf("te: min-max-loss LP %v", sol.Status)
	}
	return m.Allocation(sol), sol.X[Phi], nil
}

// MinMaxLossPlan computes the failure-oblivious optimal plan: every flow
// covered by all of its tunnels that survive the (possibly empty) cut set.
// It is the recomputation step of reactive schemes and the planning step of
// restoration-based ones (ARROW's plans on a copy of the network with the
// restored capacities, topology.Network.WithCapacities).
func MinMaxLossPlan(in *Input, cut topology.FiberSet) (*Plan, error) {
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
	alloc, phi, err := solveMinMaxLoss(in.Net, in.Tunnels, in.Demands, rows)
	if err != nil {
		return nil, err
	}
	return &Plan{Alloc: alloc, MaxLoss: phi, Tunnels: in.Tunnels}, nil
}
