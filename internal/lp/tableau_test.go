package lp

import "math"

// This file is the solver the package shipped before the revised simplex:
// a two-phase dense-tableau primal simplex, kept in test code only, as the
// independent oracle FuzzSimplex compares every solve against. It knows
// nothing of variable bounds, so tableauSolve first rewrites them as rows.

// tableauSolve solves p with the dense tableau: every finite upper bound
// becomes an LE row and every non-zero lower bound a GE row, appended after
// p's own constraints (so the first NumConstraints duals line up).
func tableauSolve(p *Problem) *Solution {
	q := &Problem{numVars: p.numVars, objective: p.objective, constraints: append([]Constraint(nil), p.constraints...)}
	for v := 0; v < p.numVars; v++ {
		if !math.IsInf(p.upper[v], 1) {
			q.constraints = append(q.constraints, Constraint{Terms: []Term{{Var: v, Coeff: 1}}, Op: LE, RHS: p.upper[v]})
		}
		if p.lower[v] != 0 {
			q.constraints = append(q.constraints, Constraint{Terms: []Term{{Var: v, Coeff: 1}}, Op: GE, RHS: p.lower[v]})
		}
	}
	t := newTableau(q)
	// Phase 1: minimize the sum of artificials.
	if t.numArt > 0 {
		t.priceOut(t.phase1Costs())
		status := t.iterate(true)
		if status != Optimal {
			return &Solution{Status: status, Pivots: t.pivots}
		}
		if t.rhsValue() > 1e-6 {
			return &Solution{Status: Infeasible, Pivots: t.pivots}
		}
		t.evictArtificials()
	}
	// Phase 2: original objective, artificials barred from entering.
	t.priceOut(t.phase2Costs())
	status := t.iterate(false)
	if status != Optimal {
		return &Solution{Status: status, Pivots: t.pivots}
	}
	return t.extract()
}

// tableau is the dense simplex tableau. Columns are laid out as
// [structural | slack+surplus | artificial | RHS]; the last row is the
// reduced-cost (objective) row.
type tableau struct {
	p       *Problem
	m       int // constraint rows
	nStruct int
	nSlack  int
	numArt  int
	cols    int // total variable columns (excl. RHS)

	a     [][]float64 // (m+1) x (cols+1)
	basis []int       // basic column per row

	slackCol   []int     // per row: its slack/surplus column, or -1
	artCol     []int     // per row: its artificial column, or -1
	rowSign    []float64 // +1, or -1 when the row was flipped to make RHS >= 0
	degenerate int       // consecutive degenerate pivot counter
	iterLimit  int
	pivots     int // total pivots across both phases (Solution.Pivots)
}

func newTableau(p *Problem) *tableau {
	m := len(p.constraints)
	t := &tableau{
		p:        p,
		m:        m,
		nStruct:  p.numVars,
		slackCol: make([]int, m),
		artCol:   make([]int, m),
		rowSign:  make([]float64, m),
		basis:    make([]int, m),
	}
	// Count slack and artificial columns. After flipping rows to RHS >= 0:
	//   LE  -> slack (basic)
	//   GE  -> surplus (-1) + artificial (basic)
	//   EQ  -> artificial (basic)
	type rowKind struct {
		op   Op
		sign float64
	}
	kinds := make([]rowKind, m)
	for i, c := range p.constraints {
		sign := 1.0
		op := c.Op
		if c.RHS < 0 {
			sign = -1
			switch op {
			case LE:
				op = GE
			case GE:
				op = LE
			}
		}
		kinds[i] = rowKind{op: op, sign: sign}
		t.rowSign[i] = sign
		if op == LE || op == GE {
			t.nSlack++
		}
		if op == GE || op == EQ {
			t.numArt++
		}
	}
	t.cols = t.nStruct + t.nSlack + t.numArt
	t.a = make([][]float64, m+1)
	for i := range t.a {
		t.a[i] = make([]float64, t.cols+1)
	}
	slackNext := t.nStruct
	artNext := t.nStruct + t.nSlack
	for i, c := range p.constraints {
		row := t.a[i]
		sign := t.rowSign[i]
		for _, term := range c.Terms {
			row[term.Var] += sign * term.Coeff
		}
		row[t.cols] = sign * c.RHS
		t.slackCol[i] = -1
		t.artCol[i] = -1
		switch kinds[i].op {
		case LE:
			row[slackNext] = 1
			t.slackCol[i] = slackNext
			t.basis[i] = slackNext
			slackNext++
		case GE:
			row[slackNext] = -1
			t.slackCol[i] = slackNext
			slackNext++
			row[artNext] = 1
			t.artCol[i] = artNext
			t.basis[i] = artNext
			artNext++
		case EQ:
			row[artNext] = 1
			t.artCol[i] = artNext
			t.basis[i] = artNext
			artNext++
		}
	}
	t.iterLimit = 200 * (m + t.cols + 10)
	return t
}

// phase1Costs is 1 on artificial columns, 0 elsewhere.
func (t *tableau) phase1Costs() []float64 {
	c := make([]float64, t.cols)
	for i := t.nStruct + t.nSlack; i < t.cols; i++ {
		c[i] = 1
	}
	return c
}

// phase2Costs is the user objective on structural columns.
func (t *tableau) phase2Costs() []float64 {
	c := make([]float64, t.cols)
	copy(c, t.p.objective)
	return c
}

// priceOut rebuilds the reduced-cost row for cost vector c given the
// current basis.
func (t *tableau) priceOut(c []float64) {
	obj := t.a[t.m]
	for j := 0; j <= t.cols; j++ {
		obj[j] = 0
	}
	copy(obj, c)
	for i := 0; i < t.m; i++ {
		cb := c[t.basis[i]]
		if cb == 0 {
			continue
		}
		row := t.a[i]
		for j := 0; j <= t.cols; j++ {
			obj[j] -= cb * row[j]
		}
	}
}

// rhsValue returns the current objective value (phase cost of the basis).
func (t *tableau) rhsValue() float64 { return -t.a[t.m][t.cols] }

// iterate pivots until optimality. In phase 2 (phase1 == false) artificial
// columns may not enter the basis.
func (t *tableau) iterate(phase1 bool) Status {
	barFrom := t.cols
	if !phase1 {
		barFrom = t.nStruct + t.nSlack
	}
	for iter := 0; iter < t.iterLimit; iter++ {
		col := t.chooseColumn(barFrom)
		if col < 0 {
			return Optimal
		}
		row := t.chooseRow(col)
		if row < 0 {
			return Unbounded
		}
		t.pivot(row, col)
	}
	return IterationLimit
}

// chooseColumn picks the entering column: Dantzig's rule normally, Bland's
// rule while escaping degeneracy. Columns >= barFrom may not enter.
func (t *tableau) chooseColumn(barFrom int) int {
	obj := t.a[t.m]
	if t.degenerate >= blandTrigger {
		for j := 0; j < barFrom; j++ {
			if obj[j] < -eps {
				return j
			}
		}
		return -1
	}
	best, bestVal := -1, -eps
	for j := 0; j < barFrom; j++ {
		if obj[j] < bestVal {
			best, bestVal = j, obj[j]
		}
	}
	return best
}

// chooseRow runs the minimum-ratio test for the entering column, breaking
// ties by smallest basis column (Bland-compatible).
func (t *tableau) chooseRow(col int) int {
	best := -1
	bestRatio := math.Inf(1)
	for i := 0; i < t.m; i++ {
		aij := t.a[i][col]
		if aij <= eps {
			continue
		}
		ratio := t.a[i][t.cols] / aij
		if ratio < bestRatio-eps || (ratio < bestRatio+eps && (best < 0 || t.basis[i] < t.basis[best])) {
			best, bestRatio = i, ratio
		}
	}
	return best
}

// pivot makes (row, col) the new basic position.
func (t *tableau) pivot(row, col int) {
	t.pivots++
	if t.a[row][t.cols] <= eps {
		t.degenerate++
	} else {
		t.degenerate = 0
	}
	pr := t.a[row]
	inv := 1 / pr[col]
	for j := 0; j <= t.cols; j++ {
		pr[j] *= inv
	}
	pr[col] = 1 // exact
	for i := 0; i <= t.m; i++ {
		if i == row {
			continue
		}
		f := t.a[i][col]
		if f == 0 {
			continue
		}
		ri := t.a[i]
		for j := 0; j <= t.cols; j++ {
			ri[j] -= f * pr[j]
		}
		ri[col] = 0 // exact
	}
	t.basis[row] = col
}

// evictArtificials pivots basic artificials (at value 0 after phase 1) out
// of the basis where possible; rows where it is impossible are linearly
// dependent and harmless to leave as-is.
func (t *tableau) evictArtificials() {
	artFrom := t.nStruct + t.nSlack
	for i := 0; i < t.m; i++ {
		if t.basis[i] < artFrom {
			continue
		}
		for j := 0; j < artFrom; j++ {
			if math.Abs(t.a[i][j]) > eps {
				t.pivot(i, j)
				break
			}
		}
	}
}

// extract reads the primal solution and duals off the final tableau.
func (t *tableau) extract() *Solution {
	x := make([]float64, t.nStruct)
	for i := 0; i < t.m; i++ {
		if b := t.basis[i]; b < t.nStruct {
			x[b] = t.a[i][t.cols]
		}
	}
	var obj float64
	for j, c := range t.p.objective {
		obj += c * x[j]
	}
	// Duals: y_i = -reducedCost(slack_i) for rows with a +1 slack,
	// y_i = +reducedCost(surplus_i) for rows with a -1 surplus, and
	// y_i = -reducedCost(artificial_i) for EQ rows (the artificial column
	// is e_i with zero phase-2 cost). Flipped rows flip the sign back.
	duals := make([]float64, t.m)
	objRow := t.a[t.m]
	for i := 0; i < t.m; i++ {
		var y float64
		switch {
		case t.slackCol[i] >= 0 && t.p.constraints[i].Op == LE != (t.rowSign[i] < 0):
			// internally a LE row: slack coefficient +1
			y = -objRow[t.slackCol[i]]
		case t.slackCol[i] >= 0:
			// internally a GE row: surplus coefficient -1
			y = objRow[t.slackCol[i]]
		default:
			y = -objRow[t.artCol[i]]
		}
		duals[i] = t.rowSign[i] * y
	}
	return &Solution{Status: Optimal, Objective: obj, X: x, Duals: duals, Pivots: t.pivots}
}
