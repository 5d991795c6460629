// Package lp implements the optimization machinery PreTE's TE formulation
// (Eqns. 2-8) needs without any external solver: a simplex for linear
// programs (with dual values, which Benders decomposition consumes for its
// optimality cuts) and a branch-and-bound solver for the small binary
// programs that appear as Benders master problems.
//
// There is one LP core (simplex.go, factor.go): a revised simplex over a
// sparse column store with native variable bounds. Every variable — the
// structural ones and one slack per row — lives in [lo, up] and is nonbasic
// at either end; the basis is held as a sparse LU factorisation, updated by
// one product-form eta per pivot and rebuilt every refactorEvery pivots.
// A pivot's work follows its non-zeros, not the row count: the solves carry
// the list of indices that may be non-zero, and the leaving row comes off a
// heap of the infeasible basics instead of a scan of the basis. A solve
// starts at the slack basis with every structural variable on the bound its
// cost sign prefers, which is dual feasible for every LP this repository
// builds, so the dual simplex (with bound flipping in its ratio test) needs
// no phase 1 and no artificial columns; a cost that has no such bound
// (negative, no upper bound) is shifted to zero for the dual pass and a
// primal pass over the same factorisation finishes with the true costs.
//
// Determinism contract: a solve is a pure function of the Problem. Pricing
// and ratio tests scan variables in index order and break ties by a fixed
// rule, the cost perturbation that keeps the dual simplex from stalling is
// a fixed function of the variable index, and a solve takes its workspace
// from a pool of recycled ones, held by no other solve while it runs, and
// re-initialises every array of it to what a fresh one holds, so a result
// depends neither on what was solved before nor on how many solves run
// concurrently (internal/par) — identical Problems pivot identically and
// return bit-identical Solutions.
package lp

import (
	"fmt"
	"math"
	"slices"
)

// Op is a constraint comparison operator.
type Op int

// Constraint operators.
const (
	LE Op = iota // <=
	GE           // >=
	EQ           // ==
)

// String renders the comparison operator as its source form.
func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case GE:
		return ">="
	default:
		return "=="
	}
}

// Term is one coefficient of a linear expression.
type Term struct {
	Var   int
	Coeff float64
}

// Constraint is a sparse linear constraint: sum(terms) Op RHS.
type Constraint struct {
	Terms []Term
	Op    Op
	RHS   float64
}

// Problem is a linear program: minimize Objective . x subject to the
// constraints and to lower <= x <= upper elementwise. A new variable has
// bounds [0, +Inf); AddUpperBound tightens the upper one, and
// branch-and-bound fixes a variable by setting both to one value.
type Problem struct {
	numVars      int
	objective    []float64
	lower, upper []float64
	constraints  []Constraint

	// mergeTerms scratch: mark[v] > markBase means v already occurred in the
	// row being merged, at index mark[v]-markBase-1.
	mark     []int
	markBase int
}

// NewProblem returns an empty minimization problem.
func NewProblem() *Problem { return &Problem{} }

// AddVar introduces a variable with the given objective coefficient and
// bounds [0, +Inf), and returns its index.
func (p *Problem) AddVar(objCoeff float64) int {
	p.objective = append(p.objective, objCoeff)
	p.lower = append(p.lower, 0)
	p.upper = append(p.upper, math.Inf(1))
	p.mark = append(p.mark, 0)
	p.numVars++
	return p.numVars - 1
}

// Reserve makes room for vars variables and rows constraints in all, so
// that a builder that knows its LP's final size allocates the Problem's
// arrays once instead of growing them one AddVar and one AddConstraint at
// a time. Adding more than was reserved still works.
func (p *Problem) Reserve(vars, rows int) {
	p.objective = room(p.objective, vars)
	p.lower = room(p.lower, vars)
	p.upper = room(p.upper, vars)
	p.mark = room(p.mark, vars)
	p.constraints = room(p.constraints, rows)
}

// room returns s with capacity for n elements in all.
func room[T any](s []T, n int) []T { return slices.Grow(s, max(0, n-len(s))) }

// NumVars returns the number of variables added so far.
func (p *Problem) NumVars() int { return p.numVars }

// NumConstraints returns the number of constraints added so far.
func (p *Problem) NumConstraints() int { return len(p.constraints) }

// AddConstraint appends a constraint and returns its row index. Terms with
// repeated variable indices are summed and zero coefficients dropped, in
// place: the Problem takes ownership of terms. Every term's Var must be an
// index AddVar returned; any other index is a bug in the caller and panics
// (index out of range) in the merge.
func (p *Problem) AddConstraint(terms []Term, op Op, rhs float64) int {
	p.constraints = append(p.constraints, Constraint{Terms: p.mergeTerms(terms), Op: op, RHS: rhs})
	return len(p.constraints) - 1
}

// AddUpperBound imposes x_v <= ub. It is a bound on the variable, not a
// constraint row: it adds no entry to Solution.Duals. v must be an index
// AddVar returned; any other index panics.
func (p *Problem) AddUpperBound(v int, ub float64) {
	p.upper[v] = math.Min(p.upper[v], ub)
}

// mergeTerms sums repeated variables into their first occurrence and drops
// zero coefficients, reusing the backing array of terms.
func (p *Problem) mergeTerms(terms []Term) []Term {
	out := terms[:0]
	for _, t := range terms {
		if k := p.mark[t.Var] - p.markBase; k > 0 {
			out[k-1].Coeff += t.Coeff
			continue
		}
		out = append(out, t)
		p.mark[t.Var] = p.markBase + len(out)
	}
	p.markBase += len(terms)
	kept := out[:0]
	for _, t := range out {
		if t.Coeff != 0 {
			kept = append(kept, t)
		}
	}
	return kept
}

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	// IterationLimit reports the solver's hard pivot/node cap fired before
	// optimality was proven. A simplex solve then carries no point (X and
	// Duals are nil); a SolveMIP solution carries its incumbent, or else the
	// root relaxation's point, which is nil too when that LP hit the cap.
	// Callers must not treat it as certified optimal.
	IterationLimit
	// Truncated reports a cooperative Budget expired mid-solve (work units
	// or wall-clock deadline — see Budget). As with IterationLimit, only a
	// SolveMIP solution can carry a point (its incumbent or root
	// relaxation); truncation is an expected anytime outcome, not a
	// pathology: the caller asked for at most this much work.
	Truncated
)

// String names the solve status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterationLimit:
		return "iteration-limit"
	case Truncated:
		return "truncated"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Solution is the result of solving a Problem.
type Solution struct {
	Status    Status
	Objective float64
	X         []float64 // primal values, len NumVars; nil when no point was reached
	Duals     []float64 // one per constraint row, len NumConstraints; nil with X
	// Pivots counts simplex pivots across the dual and primal passes — the
	// solver-iteration figure the observability layer records
	// (internal/obs); identical runs pivot identically, so it is
	// deterministic diagnostic output.
	Pivots int
	// Nodes counts branch-and-bound nodes explored (MIP solves only).
	Nodes int
}
