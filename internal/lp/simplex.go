package lp

import (
	"math"
	"slices"
	"sync"
)

const (
	// eps is the primal and dual feasibility tolerance and the smallest
	// magnitude accepted as a pivot.
	eps = 1e-9
	// blandTrigger: after this many consecutive degenerate pivots the
	// solver switches to Bland's rule, which cannot cycle.
	blandTrigger = 64
	// refactorEvery is the number of pivots between two factorisations of
	// the basis; in between, each pivot appends one eta. At most 64, the
	// etas one factor.etaMask word can name.
	refactorEvery = 64
	// perturbation scales the cost perturbation of the dual pass, an
	// anti-stalling device: when most costs are zero nearly every dual
	// ratio ties at zero. Its size and shape are arbitrary; the primal pass
	// restores the true costs afterwards.
	perturbation = 1e-7
)

// Solve runs the simplex and returns the optimal solution with primal values
// and duals. Duals[i] is the shadow price dObjective/dRHS of constraint i (so
// <=0 for binding LE rows and >=0 for binding GE rows of a minimization).
func (p *Problem) Solve() *Solution { return p.SolveBudget(nil) }

// SolveBudget is Solve under a cooperative compute budget: each pivot spends
// one work unit, and the solve returns Status == Truncated (with the pivots
// performed so far recorded) the moment the budget expires. A nil budget is
// unlimited, making SolveBudget(nil) identical to Solve.
func (p *Problem) SolveBudget(budget *Budget) *Solution {
	s := workspaces.Get().(*solver)
	sol := s.load(p, budget).run()
	s.p, s.budget = nil, nil
	workspaces.Put(s)
	if solveHook != nil {
		solveHook(p, sol)
	}
	return sol
}

// solveHook is nil outside this package's tests, which set it (before any
// solve runs) to capture the LPs other packages build.
var solveHook func(*Problem, *Solution)

// workspaces holds the solvers finished solves returned, so that a solve
// takes its arrays from an earlier one instead of allocating them: load
// gives every array a solve reads the contents a fresh make would, so a
// recycled workspace solves exactly like a new one.
var workspaces = sync.Pool{New: func() any { return new(solver) }}

// solver is the workspace of one solve. Variables 0..n-1 are the Problem's,
// variable n+i is the slack of row i (row_i . x + slack_i = rhs_i, bounded
// by the row's operator), so every basis is a set of m of the n+m columns
// [A | I] and the all-slack basis is the identity.
type solver struct {
	p          *Problem
	n          int // structural variables; slacks follow
	budget     *Budget
	pivots     int
	iterLimit  int
	degenerate int // consecutive zero-step pivots

	// The structural columns, compressed; rows are read from p.constraints.
	colPtr, colRow []int32
	colVal         []float64

	rowNorm []float64 // 2-norm of each constraint row (1 for an empty one)

	lo, up  []float64 // bounds, per variable
	cost    []float64 // working costs: perturbed in the dual pass, true after
	x       []float64 // current value, per variable
	d       []float64 // reduced cost, per variable (0 on basic ones)
	atUpper []bool    // nonbasic variable sits at up, not lo
	basic   []int32   // basis position -> variable
	pos     []int32   // variable -> basis position, -1 when nonbasic

	f     factor
	y     []float64 // row duals of the last computeDuals
	row   sparse    // row-indexed scratch, empty between uses
	col   sparse    // position-indexed: ftran's result, btran's input
	alpha []float64 // the pivot row, valid on the variables listed in nz
	nz    []int32   // variables with a non-zero in the pivot row, in row order
	inNZ  []bool    // structural variable is listed in nz
	cand  []int32   // dual ratio test candidates

	// The infeasible basis positions, a max-heap on (viol descending,
	// position ascending): viol is the violation leavingRow prices by,
	// heapAt a position's index in heap, -1 when it is feasible. On the
	// storm LPs a third of the basis is infeasible at a mean dual pivot: an
	// unordered list scanned per pivot solved them 2-9% slower, and made a
	// classed B4 epoch 5% slower.
	heap   []int32
	heapAt []int32
	viol   []float64
}

// load re-initialises the workspace s, new or recycled, for a solve of p
// and returns it. The struct is rebuilt field by field, so a field this
// list misses starts out empty instead of holding the last solve's data.
func (s *solver) load(p *Problem, budget *Budget) *solver {
	m, n := len(p.constraints), p.numVars
	s.f.resize(m)
	s.row.resize(m)
	s.col.resize(m)
	*s = solver{
		p: p, n: n, budget: budget, iterLimit: 200 * (2*m + n + 10),
		colPtr: fit(s.colPtr, n+1), colRow: s.colRow, colVal: s.colVal, rowNorm: fit(s.rowNorm, m),
		lo: fit(s.lo, n+m), up: fit(s.up, n+m), cost: fit(s.cost, n+m),
		x: fit(s.x, n+m), d: fit(s.d, n+m), atUpper: fit(s.atUpper, n+m),
		basic: fit(s.basic, m), pos: fit(s.pos, n+m),
		f: s.f,
		y: fit(s.y, m), row: s.row, col: s.col,
		alpha: fit(s.alpha, n+m), nz: s.nz[:0], inNZ: fit(s.inNZ, n), cand: s.cand[:0],
		heap: slices.Grow(s.heap[:0], m), heapAt: fit(s.heapAt, m), viol: fit(s.viol, m),
	}
	nnz := 0
	for i, c := range p.constraints {
		nnz += len(c.Terms)
		sq := 0.0
		for _, t := range c.Terms {
			s.colPtr[t.Var+1]++
			sq += t.Coeff * t.Coeff
		}
		s.rowNorm[i] = 1
		if sq > 0 {
			s.rowNorm[i] = math.Sqrt(sq)
		}
	}
	for j := 0; j < n; j++ {
		s.colPtr[j+1] += s.colPtr[j]
	}
	s.colRow, s.colVal = fit(s.colRow, nnz), fit(s.colVal, nnz)
	next := s.pos[:n] // each column's fill cursor, until the structurals go nonbasic
	copy(next, s.colPtr)
	for i, c := range p.constraints {
		for _, t := range c.Terms {
			s.colRow[next[t.Var]], s.colVal[next[t.Var]] = int32(i), t.Coeff
			next[t.Var]++
		}
		j := n + i
		switch c.Op {
		case LE:
			s.up[j] = math.Inf(1)
		case GE:
			s.lo[j] = math.Inf(-1)
		}
		s.basic[i], s.pos[j] = int32(j), int32(i)
	}
	for j := range next {
		next[j] = -1
	}
	copy(s.lo, p.lower)
	copy(s.up, p.upper)
	copy(s.cost, p.objective)
	return s
}

// run solves the loaded Problem.
func (s *solver) run() *Solution {
	sol := &Solution{Status: s.solve(), Pivots: s.pivots}
	if sol.Status == Optimal {
		s.extract(sol)
	}
	return sol
}

// solve runs the two passes: a dual simplex from the slack basis under
// costs made dual feasible (and perturbed), which ends primal feasible or
// proves infeasibility, then a primal simplex under the true costs, which
// has nothing to do unless a cost was shifted or the perturbation left a
// reduced cost on the wrong side of zero.
func (s *solver) solve() Status {
	for j := 0; j < s.n; j++ {
		lo, up := s.lo[j], s.up[j]
		if lo > up {
			return Infeasible
		}
		s.x[j] = lo
		if lo == up {
			continue // fixed: any reduced cost is dual feasible
		}
		// Any positive xi would do. It grows with the index only so that the
		// perturbed optimum agrees with the ratio tests' tie-break — among
		// interchangeable columns the lowest index is loaded first, which
		// TestSimplexTiePrefersLowestIndex pins because callers' results
		// depend on it.
		xi := perturbation * (1 + float64(j)/float64(s.n))
		switch {
		case s.cost[j] >= 0:
			s.cost[j] += xi
		case !math.IsInf(up, 1):
			s.park(int32(j), true)
			s.cost[j] -= xi
		default:
			s.cost[j] = xi // no bound to hold a negative cost: shifted to zero
		}
	}
	s.refactor()
	for {
		if status := s.dual(); status != Optimal {
			return status
		}
		copy(s.cost, s.p.objective)
		s.degenerate = 0
		if status := s.primal(); status != Optimal {
			return status
		}
		// primal ends on a fresh factorisation, which can expose a bound
		// violation its updates had hidden; dual (the costs are now true
		// and dual feasible) repairs it.
		if s.leavingRow() < 0 {
			return Optimal
		}
	}
}

// refactor rebuilds the factorisation of the current basis and recomputes
// the basic values and the reduced costs from it, discarding whatever error
// the updates since the last one accumulated.
func (s *solver) refactor() {
	s.f.build(s)
	// x_B = B^-1 (rhs - N x_N); nonbasic slacks sit at 0.
	s.row.dense()
	for i, c := range s.p.constraints {
		s.row.val[i] = c.RHS
	}
	for j := 0; j < s.n; j++ {
		if xj := s.x[j]; s.pos[j] < 0 && xj != 0 {
			for k := s.colPtr[j]; k < s.colPtr[j+1]; k++ {
				s.row.val[s.colRow[k]] -= xj * s.colVal[k]
			}
		}
	}
	s.f.ftran(&s.row, &s.col)
	s.heap = s.heap[:0]
	for i, v := range s.basic {
		s.x[v] = s.col.val[i]
		s.heapAt[i] = -1
		if s.priced(int32(i)) {
			s.heapAt[i] = int32(len(s.heap))
			s.heap = append(s.heap, int32(i))
		}
	}
	for k := len(s.heap)/2 - 1; k >= 0; k-- {
		s.siftDown(k)
	}
	s.computeDuals()
}

// computeDuals sets y = c_B B^-1 and d_j = c_j - y . A_j under the working
// costs.
func (s *solver) computeDuals() {
	s.col.dense()
	for i, v := range s.basic {
		s.col.val[i] = s.cost[v]
	}
	s.f.btran(&s.col, &s.row)
	copy(s.y, s.row.val)
	s.row.reset()
	for j := 0; j < s.n; j++ {
		t := 0.0
		if s.pos[j] < 0 {
			t = s.cost[j]
			for k := s.colPtr[j]; k < s.colPtr[j+1]; k++ {
				t -= s.y[s.colRow[k]] * s.colVal[k]
			}
		}
		s.d[j] = t
	}
	for i, yi := range s.y {
		if j := s.n + i; s.pos[j] < 0 {
			s.d[j] = -yi
		} else {
			s.d[j] = 0
		}
	}
}

// park puts nonbasic variable v exactly on its upper or its lower bound.
func (s *solver) park(v int32, atUpper bool) {
	s.atUpper[v] = atUpper
	if atUpper {
		s.x[v] = s.up[v]
	} else {
		s.x[v] = s.lo[v]
	}
}

// shiftBasics moves every basic variable by -step times its entry in s.col.
func (s *solver) shiftBasics(step float64) {
	for _, i := range s.col.idx {
		if a := s.col.val[i]; a != 0 {
			s.x[s.basic[i]] -= step * a
			s.track(i)
		}
	}
}

// evict makes the variable at basis position pos nonbasic at the bound
// nearest its value, leaving the position empty (-1) for enter.
func (s *solver) evict(pos int32) {
	v := s.basic[pos]
	s.park(v, s.up[v]-s.x[v] < s.x[v]-s.lo[v])
	s.pos[v], s.basic[pos] = -1, -1
}

// enter makes variable v basic at position pos.
func (s *solver) enter(pos, v int32) {
	s.basic[pos], s.pos[v] = v, pos
}

// ftranColumn leaves B^-1 A_v in s.col, its list in position order.
func (s *solver) ftranColumn(v int32) {
	if int(v) >= s.n {
		s.row.set(v-int32(s.n), 1)
	} else {
		for k := s.colPtr[v]; k < s.colPtr[v+1]; k++ {
			s.row.set(s.colRow[k], s.colVal[k])
		}
	}
	s.f.ftran(&s.row, &s.col)
	slices.Sort(s.col.idx)
}

// pivot performs the basis change at position r once s.col holds the
// entering column: the entering variable q moves by step, every basic
// variable follows, and the leaving one lands exactly on bound (its upper
// one when toUpper).
func (s *solver) pivot(r, q int32, step float64, toUpper bool) {
	s.shiftBasics(step)
	s.x[q] += step
	p := s.basic[r]
	s.park(p, toUpper)
	s.pos[p] = -1
	s.enter(r, q)
	s.track(r)
	s.f.push(r, &s.col)
}

// countPivot books one pivot and, from the length of the step it took in
// the pass's own objective, the degenerate streak.
func (s *solver) countPivot(step float64) {
	s.pivots++
	if math.Abs(step) <= eps {
		s.degenerate++
	} else {
		s.degenerate = 0
	}
}

// bland reports whether the anti-cycling rule is in force.
func (s *solver) bland() bool { return s.degenerate >= blandTrigger }

// dual is the bounded dual simplex: pick the basic variable furthest
// outside its bounds, let the ratio test over its row choose what enters
// (flipping boxed variables whose breakpoints it passes), pivot. It returns
// Optimal once the basis is primal feasible under a fresh factorisation.
func (s *solver) dual() Status {
	for {
		r := s.leavingRow()
		if r < 0 {
			if s.f.etas() == 0 {
				return Optimal
			}
			s.refactor()
			continue
		}
		if s.pivots >= s.iterLimit {
			return IterationLimit
		}
		p := s.basic[r]
		toUpper := s.x[p] > s.up[p]
		s.pivotRow(r)
		q := s.dualRatio(p, toUpper)
		if q < 0 {
			// Nothing can enter: the row proves infeasibility, if it is
			// exact. Believe it only from a fresh factorisation.
			if s.f.etas() == 0 {
				return Infeasible
			}
			s.refactor()
			continue
		}
		// One pivot = one deterministic work unit; stop before performing a
		// pivot the budget cannot pay for, so equal budgets truncate at the
		// same basis.
		if !s.budget.Spend(1) {
			return Truncated
		}
		s.ftranColumn(q)
		bound := s.lo[p]
		if toUpper {
			bound = s.up[p]
		}
		stepD := s.d[q] / s.alpha[q]
		for _, j := range s.nz {
			if s.pos[j] < 0 {
				s.d[j] -= stepD * s.alpha[j]
			}
		}
		s.d[p], s.d[q] = -stepD, 0
		s.pivot(r, q, (s.x[p]-bound)/s.col.val[r], toUpper)
		s.countPivot(stepD)
		if s.f.etas() >= refactorEvery {
			s.refactor()
		}
	}
}

// leavingRow returns the basis position of the basic variable that is
// furthest outside its bounds (under Bland's rule, of the infeasible one of
// lowest index), or -1 when all are within bounds. A slack's violation is
// measured in units of its row's norm — the distance from the current point
// to the violated constraint's hyperplane — so the choice does not change
// when a row is multiplied by a constant; a structural variable's is taken
// as it is. Ties go to the lowest position. The heap holds exactly the
// infeasible positions, so neither rule scans the basis.
func (s *solver) leavingRow() int32 {
	if len(s.heap) == 0 {
		return -1
	}
	best := s.heap[0]
	if s.bland() {
		for _, i := range s.heap {
			if s.basic[i] < s.basic[best] {
				best = i
			}
		}
	}
	return best
}

// priced sets viol[i] from the value of the variable at basis position i
// and reports whether it lies outside its bounds by more than eps.
func (s *solver) priced(i int32) bool {
	v := s.basic[i]
	x := s.x[v]
	infeas := s.lo[v] - x
	if x > s.up[v] {
		infeas = x - s.up[v]
	}
	if infeas <= eps {
		return false
	}
	if int(v) >= s.n {
		infeas /= s.rowNorm[int(v)-s.n]
	}
	s.viol[i] = infeas
	return true
}

// track re-prices basis position i after its value or its variable changed,
// moving it into, within or out of the heap.
func (s *solver) track(i int32) {
	k := int(s.heapAt[i])
	switch in := s.priced(i); {
	case in && k < 0:
		s.heapAt[i] = int32(len(s.heap))
		s.heap = append(s.heap, i)
		s.siftUp(len(s.heap) - 1)
	case in:
		s.siftUp(k)
		s.siftDown(int(s.heapAt[i]))
	case k >= 0:
		last := len(s.heap) - 1
		s.swap(k, last)
		s.heap, s.heapAt[i] = s.heap[:last], -1
		if k < last {
			j := s.heap[k]
			s.siftUp(k)
			s.siftDown(int(s.heapAt[j]))
		}
	}
}

// above reports whether heap entry a ranks before heap entry b.
func (s *solver) above(a, b int) bool {
	i, j := s.heap[a], s.heap[b]
	return s.viol[i] > s.viol[j] || (s.viol[i] == s.viol[j] && i < j)
}

func (s *solver) swap(a, b int) {
	s.heap[a], s.heap[b] = s.heap[b], s.heap[a]
	s.heapAt[s.heap[a]], s.heapAt[s.heap[b]] = int32(a), int32(b)
}

func (s *solver) siftUp(k int) {
	for k > 0 && s.above(k, (k-1)/2) {
		s.swap(k, (k-1)/2)
		k = (k - 1) / 2
	}
}

func (s *solver) siftDown(k int) {
	for {
		c := 2*k + 1
		if c >= len(s.heap) {
			return
		}
		if c+1 < len(s.heap) && s.above(c+1, c) {
			c++
		}
		if !s.above(c, k) {
			return
		}
		s.swap(k, c)
		k = c
	}
}

// pivotRow computes row r of B^-1 [A | I]: its non-zeros are listed in s.nz,
// their values left in s.alpha.
func (s *solver) pivotRow(r int32) {
	s.col.reset()
	s.col.set(r, 1)
	s.f.btran(&s.col, &s.row)
	slices.Sort(s.row.idx)
	s.nz = s.nz[:0]
	for _, i := range s.row.idx {
		ri := s.row.val[i]
		if ri == 0 {
			continue
		}
		s.alpha[s.n+int(i)] = ri
		s.nz = append(s.nz, int32(s.n)+i)
		for _, t := range s.p.constraints[i].Terms {
			if !s.inNZ[t.Var] {
				s.inNZ[t.Var] = true
				s.alpha[t.Var] = 0
				s.nz = append(s.nz, int32(t.Var))
			}
			s.alpha[t.Var] += ri * t.Coeff
		}
	}
	s.row.reset()
	for _, j := range s.nz {
		if int(j) < s.n {
			s.inNZ[j] = false
		}
	}
}

// dualRatio picks the entering variable for leaving variable p (moving to
// its upper bound when toUpper, else its lower): the nonbasic variable whose
// reduced cost reaches zero first as the dual step grows, preferring the
// larger pivot among ties. A boxed candidate whose whole range does not
// absorb p's remaining infeasibility is flipped to its other bound instead
// — its reduced cost changes sign at that breakpoint, which the flip makes
// feasible again — and the search goes on to the next breakpoint. It
// returns -1 when nothing can enter: the row proves the LP infeasible.
func (s *solver) dualRatio(p int32, toUpper bool) int32 {
	sign, infeas := -1.0, s.lo[p]-s.x[p]
	if toUpper {
		sign, infeas = 1, s.x[p]-s.up[p]
	}
	s.cand = s.cand[:0]
	for _, j := range s.nz {
		if s.pos[j] >= 0 || s.lo[j] == s.up[j] {
			continue
		}
		if a := sign * s.alpha[j]; (s.atUpper[j] && a < -eps) || (!s.atUpper[j] && a > eps) {
			s.cand = append(s.cand, j)
		}
	}
	flipped := false
	for len(s.cand) > 0 {
		// Smallest ratio; among (near-)equal ones the largest pivot, or under
		// Bland's rule the lowest index; equal pivots go to the lowest index.
		best, bestRatio, bestAbs := 0, math.Inf(1), 0.0
		for k, j := range s.cand {
			abs := math.Abs(s.alpha[j])
			ratio := math.Abs(s.d[j]) / abs
			if s.bland() {
				abs = 0
			}
			if ratio < bestRatio-1e-12 || (ratio <= bestRatio+1e-12 && (abs > bestAbs || (abs == bestAbs && j < s.cand[best]))) {
				best, bestRatio, bestAbs = k, ratio, abs
			}
		}
		q := s.cand[best]
		rest := infeas - math.Abs(s.alpha[q])*(s.up[q]-s.lo[q])
		if s.bland() || !(rest > eps) {
			if flipped {
				s.applyFlips()
			}
			return q
		}
		// Flip q: p's infeasibility shrinks by |alpha_q| * range.
		infeas, flipped = rest, true
		delta := -s.x[q]
		s.park(q, !s.atUpper[q])
		delta += s.x[q]
		if int(q) >= s.n {
			s.row.list(q - int32(s.n))
			s.row.val[int(q)-s.n] += delta
		} else {
			for k := s.colPtr[q]; k < s.colPtr[q+1]; k++ {
				s.row.list(s.colRow[k])
				s.row.val[s.colRow[k]] += delta * s.colVal[k]
			}
		}
		s.cand[best] = s.cand[len(s.cand)-1]
		s.cand = s.cand[:len(s.cand)-1]
	}
	if flipped {
		s.applyFlips()
	}
	return -1
}

// applyFlips moves the basic variables by -B^-1 (sum of A_j * delta_j), the
// flipped columns' combined move that dualRatio accumulated in s.row.
func (s *solver) applyFlips() {
	s.f.ftran(&s.row, &s.col)
	s.shiftBasics(1)
}

// primal is the bounded primal simplex from a primal feasible basis: price
// by largest reduced-cost violation, ratio-test the entering column against
// both bounds of every basic variable and the entering variable's own
// range, pivot or flip. Reduced costs are recomputed from the factorisation
// every iteration — this pass is short, it only cleans up after dual.
func (s *solver) primal() Status {
	for {
		s.computeDuals()
		q, dir := s.entering()
		if q < 0 {
			if s.f.etas() == 0 {
				return Optimal
			}
			s.refactor()
			continue
		}
		if s.pivots >= s.iterLimit {
			return IterationLimit
		}
		s.ftranColumn(q)
		// The entering variable moves by dir*step; basic variable i by
		// -dir*step*col[i]. leave stays -1 when q's own range binds first.
		step, leave, leaveAbs := s.up[q]-s.lo[q], int32(-1), 0.0
		for _, i := range s.col.idx {
			abs := math.Abs(s.col.val[i])
			if abs <= eps {
				continue
			}
			v := s.basic[i]
			room := s.up[v] - s.x[v]
			if s.col.val[i]*dir > 0 {
				room = s.x[v] - s.lo[v]
			}
			ratio := math.Max(room, 0) / abs
			// As in dualRatio: smallest ratio, then the largest pivot (no
			// such preference under Bland's rule), then the lowest index.
			if s.bland() {
				abs = 0
			}
			tie := ratio <= step+1e-12 && leave >= 0 && (abs > leaveAbs || (abs == leaveAbs && v < s.basic[leave]))
			if ratio < step-1e-12 || tie {
				step, leave, leaveAbs = ratio, i, abs
			}
		}
		if math.IsInf(step, 1) {
			return Unbounded
		}
		if !s.budget.Spend(1) {
			return Truncated
		}
		if leave < 0 {
			// Bound flip: q crosses its whole range, the basis stays.
			s.shiftBasics(dir * step)
			s.park(q, !s.atUpper[q])
			s.countPivot(step)
			continue
		}
		s.pivot(leave, q, dir*step, s.col.val[leave]*dir < 0)
		s.countPivot(step)
		if s.f.etas() >= refactorEvery {
			s.refactor()
		}
	}
}

// entering returns the nonbasic variable whose reduced cost violates dual
// feasibility the most (under Bland's rule, the violating one of lowest
// index) and the direction it must move, or -1 when none does.
func (s *solver) entering() (q int32, dir float64) {
	q, worst := -1, eps
	for j, dj := range s.d {
		if s.pos[j] >= 0 || s.lo[j] == s.up[j] {
			continue
		}
		if s.atUpper[j] {
			dj = -dj
		}
		if dj < -worst {
			q, worst = int32(j), -dj
			if s.bland() {
				break
			}
		}
	}
	if q >= 0 && s.atUpper[q] {
		return q, -1
	}
	return q, 1
}

// fit returns buf with length n and every element zero, what make([]T, n)
// returns, reusing buf's array when it has room.
func fit[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// extract reads the solution off an optimal basis whose duals computeDuals
// has just set under the true costs. The Solution owns its slices: the
// workspace goes back to the pool.
func (s *solver) extract(sol *Solution) {
	sol.X, sol.Duals = make([]float64, s.n), slices.Clone(s.y)
	for j := range sol.X {
		sol.X[j] = math.Min(math.Max(s.x[j], s.lo[j]), s.up[j])
		sol.Objective += s.p.objective[j] * sol.X[j]
	}
}
