package lp

import (
	"math"
	"slices"
)

// MIP wraps a Problem with binary restrictions on a subset of variables.
// PreTE's Benders master problems (choose the scenario-selection variables
// delta) are exactly this shape: few binaries, few cut rows.
type MIP struct {
	*Problem
	binary map[int]bool
}

// NewMIP returns an empty mixed binary program.
func NewMIP() *MIP {
	return &MIP{Problem: NewProblem(), binary: make(map[int]bool)}
}

// AddBinaryVar introduces a variable constrained to {0, 1}.
func (m *MIP) AddBinaryVar(objCoeff float64) int {
	v := m.Problem.AddVar(objCoeff)
	m.binary[v] = true
	m.upper[v] = 1 // the relaxation's bound; x >= 0 is the default
	return v
}

// MIPOptions tunes the branch-and-bound search.
type MIPOptions struct {
	// MaxNodes caps the search tree; 0 means a generous default. When the
	// cap is hit the best incumbent found so far is returned with
	// Status == IterationLimit.
	MaxNodes int
	// Budget, when non-nil, is spent cooperatively: one unit per
	// branch-and-bound node plus one per pivot of every node LP. On
	// exhaustion the best incumbent so far is returned with
	// Status == Truncated (or the root relaxation when none exists).
	Budget *Budget
}

// SolveMIP runs best-first branch-and-bound with LP relaxations.
func (m *MIP) SolveMIP(opts MIPOptions) *Solution {
	if opts.MaxNodes == 0 {
		opts.MaxNodes = 20000
	}
	type node struct {
		fixed map[int]float64
		bound float64
	}
	root := node{fixed: map[int]float64{}}
	relax := m.solveWithFixings(root.fixed, opts.Budget)
	pivots := relax.Pivots
	if relax.Status != Optimal {
		return relax
	}
	root.bound = relax.Objective

	var incumbent *Solution
	stack := []node{root}
	nodes := 0
	truncated := false
	// lpLimited records a node LP that hit its hard pivot cap. Such a node
	// cannot simply be pruned — its subtree may hold the true optimum — so
	// the search result is downgraded to IterationLimit instead of being
	// silently reported as optimal.
	lpLimited := false
	for len(stack) > 0 && nodes < opts.MaxNodes {
		if !opts.Budget.Spend(1) {
			truncated = true
			break
		}
		nodes++
		// Best-first: pop the node with the smallest bound.
		bi := 0
		for i := range stack {
			if stack[i].bound < stack[bi].bound {
				bi = i
			}
		}
		nd := stack[bi]
		stack = append(stack[:bi], stack[bi+1:]...)
		if incumbent != nil && nd.bound >= incumbent.Objective-1e-12 {
			continue
		}
		sol := m.solveWithFixings(nd.fixed, opts.Budget)
		pivots += sol.Pivots
		if sol.Status == Truncated {
			truncated = true
			break
		}
		if sol.Status == IterationLimit {
			lpLimited = true
			continue
		}
		if sol.Status != Optimal {
			continue
		}
		if incumbent != nil && sol.Objective >= incumbent.Objective-1e-12 {
			continue
		}
		branchVar := m.mostFractional(sol)
		if branchVar < 0 {
			// Integral: new incumbent.
			cp := *sol
			incumbent = &cp
			continue
		}
		for _, val := range [2]float64{math.Round(sol.X[branchVar]), 1 - math.Round(sol.X[branchVar])} {
			child := node{fixed: make(map[int]float64, len(nd.fixed)+1), bound: sol.Objective}
			for k, v := range nd.fixed {
				child.fixed[k] = v
			}
			child.fixed[branchVar] = val
			stack = append(stack, child)
		}
	}
	if incumbent == nil {
		if truncated || nodes >= opts.MaxNodes {
			// Search cut short before any integral solution: report the
			// (possibly fractional) root relaxation rather than claiming
			// infeasibility.
			relax.Status = IterationLimit
			if truncated {
				relax.Status = Truncated
			}
			relax.Pivots, relax.Nodes = pivots, nodes
			return relax
		}
		return &Solution{Status: Infeasible, Pivots: pivots, Nodes: nodes}
	}
	switch {
	case truncated:
		incumbent.Status = Truncated
	case len(stack) > 0 && nodes >= opts.MaxNodes:
		incumbent.Status = IterationLimit
	case lpLimited:
		// Every open node was closed, but at least one pruning decision
		// rested on an uncertified (pivot-capped) LP: the incumbent is
		// feasible yet not provably optimal.
		incumbent.Status = IterationLimit
	}
	incumbent.Pivots, incumbent.Nodes = pivots, nodes
	return incumbent
}

// solveWithFixings solves the LP relaxation with some binaries fixed, each
// by collapsing its bounds onto the value. A value outside the variable's
// own bounds (a binary whose upper bound was tightened to 0, fixed at 1)
// makes the node infeasible.
func (m *MIP) solveWithFixings(fixed map[int]float64, budget *Budget) *Solution {
	sub := *m.Problem
	if len(fixed) > 0 {
		sub.lower, sub.upper = slices.Clone(m.lower), slices.Clone(m.upper)
		for v, val := range fixed {
			if val < m.lower[v] || val > m.upper[v] {
				return &Solution{Status: Infeasible}
			}
			sub.lower[v], sub.upper[v] = val, val
		}
	}
	return sub.SolveBudget(budget)
}

// mostFractional returns the binary variable farthest from integrality in
// the solution, or -1 when all binaries are integral.
func (m *MIP) mostFractional(sol *Solution) int {
	best, bestDist := -1, 1e-6
	for v := 0; v < len(sol.X); v++ {
		if !m.binary[v] {
			continue
		}
		frac := math.Abs(sol.X[v] - math.Round(sol.X[v]))
		if frac > bestDist {
			best, bestDist = v, frac
		}
	}
	return best
}

// IsBinary reports whether variable v is binary-restricted.
func (m *MIP) IsBinary(v int) bool { return m.binary[v] }
