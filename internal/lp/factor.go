package lp

import (
	"math"
	"math/bits"
	"slices"
)

const (
	// singularTol is the largest pivot magnitude the factorisation treats as
	// zero: a basis column with nothing larger left is linearly dependent on
	// the columns eliminated before it.
	singularTol = 1e-11
	// pivotThreshold is the share of a column's largest eligible entry a
	// pivot must reach (threshold partial pivoting): among the entries that
	// do, the one in the sparsest row is taken, to limit fill.
	pivotThreshold = 0.1
)

// factor holds the basis matrix B (one column per basis position) as
// B = L*U*E_1*...*E_k: a sparse LU factorisation computed by build, and one
// product-form eta E per pivot made since (push). Vectors are indexed by
// constraint row on the row side of B and by basis position on its column
// side; elimination step s pivots on row stepRow[s] and eliminates the
// column of position stepPos[s].
type factor struct {
	stepRow, stepPos []int32
	rowStep          []int32 // row -> step that pivoted on it, -1 while unpivoted
	// The first slackSteps steps are the basic slacks: unit columns pivoting
	// on their own row, with no L or U entries, which the solves skip over.
	slackSteps int

	// L: for each step with a non-empty column (lSteps, ascending), the
	// multipliers of the rows still unpivoted at that step.
	lSteps     []int32
	lPtr, lRow []int32
	lVal       []float64
	// U: for each step, its entries in rows pivoted at earlier steps, and
	// the pivot itself in uDiag.
	uPtr, uRow []int32
	uVal       []float64
	uDiag      []float64
	// The eta file: eta e replaces column ePos[e] of the identity by the
	// entering column as seen through the factorisation before it — pivot
	// ePiv[e], the other non-zeros in eIdx/eVal.
	ePos       []int32
	ePiv       []float64
	ePtr, eIdx []int32
	eVal       []float64

	// The transposes btran walks instead of scanning: uT lists, for each
	// row, the steps whose U column has an entry in it (ascending); etaMask
	// holds, for each position, the set of etas that read it (bit e for eta
	// e: an eta file of refactorEvery etas fits one uint64).
	uTPtr, uTStep []int32
	etaMask       []uint64
	posStep       []int32 // basis position -> step that eliminated it
	uOn           []bool  // U step btran has yet to run

	rowCount []int32 // basis non-zeros per row, build's sparsity measure
	order    []int32
}

// An etaMask word names at most 64 etas: this fails to compile (a negative
// shift) if refactorEvery ever exceeds that.
const _ = uint64(1) << (64 - refactorEvery)

// resize readies f for a basis of m rows, reusing its arrays: every array
// is empty or zero, as a new factor's would be.
func (f *factor) resize(m int) {
	*f = factor{
		stepRow: fit(f.stepRow, m), stepPos: fit(f.stepPos, m), rowStep: fit(f.rowStep, m),
		lSteps: f.lSteps[:0], lPtr: slices.Grow(fit(f.lPtr, 1), m), lRow: f.lRow[:0], lVal: f.lVal[:0],
		uPtr: slices.Grow(fit(f.uPtr, 1), m), uRow: f.uRow[:0], uVal: f.uVal[:0], uDiag: slices.Grow(f.uDiag[:0], m),
		// An eta holds the entering column's non-zeros, a few per pivot on
		// the LPs built here: m entries hold a whole eta file of them.
		ePos: slices.Grow(f.ePos[:0], refactorEvery), ePiv: slices.Grow(f.ePiv[:0], refactorEvery),
		ePtr: slices.Grow(fit(f.ePtr, 1), refactorEvery), eIdx: slices.Grow(f.eIdx[:0], m), eVal: slices.Grow(f.eVal[:0], m),
		uTPtr: fit(f.uTPtr, m+1), uTStep: f.uTStep[:0], etaMask: fit(f.etaMask, m), posStep: fit(f.posStep, m),
		uOn: fit(f.uOn, m), rowCount: fit(f.rowCount, m), order: f.order[:0],
	}
}

// etas is the number of pivots pushed since the last build.
func (f *factor) etas() int { return len(f.ePos) }

// build factorises the basis s.basic from scratch and empties the eta file.
// Slack columns pivot on their own row first; structural columns follow,
// sparsest first. A column that is numerically dependent on those before it
// is replaced in the basis by the slack of a row nothing pivoted on, its
// variable going nonbasic at the bound nearest its value. The solver's row
// vector, empty between its uses, is the elimination's scratch.
func (f *factor) build(s *solver) {
	f.lSteps, f.lPtr, f.lRow, f.lVal = f.lSteps[:0], f.lPtr[:1], f.lRow[:0], f.lVal[:0]
	f.uPtr, f.uRow, f.uVal, f.uDiag = f.uPtr[:1], f.uRow[:0], f.uVal[:0], f.uDiag[:0]
	for _, i := range f.ePos {
		f.etaMask[i] = 0
	}
	for _, i := range f.eIdx {
		f.etaMask[i] = 0
	}
	f.ePos, f.ePiv, f.ePtr, f.eIdx, f.eVal = f.ePos[:0], f.ePiv[:0], f.ePtr[:1], f.eIdx[:0], f.eVal[:0]
	for i := range f.rowStep {
		f.rowStep[i] = -1
		f.rowCount[i] = 0
	}
	f.order = f.order[:0]
	step, nnz := 0, 0
	for pos, v := range s.basic {
		if int(v) >= s.n {
			f.pivot(step, int32(pos), v-int32(s.n), 1)
			step++
			continue
		}
		f.order = append(f.order, int32(pos))
		for k := s.colPtr[v]; k < s.colPtr[v+1]; k++ {
			f.rowCount[s.colRow[k]]++
		}
		nnz += int(s.colPtr[v+1] - s.colPtr[v])
	}
	f.slackSteps = step
	// U holds the structural columns' entries off their pivots (more only
	// after fill). Each refactor finds more structurals in the basis than
	// the last: reserve a quarter more than today's, which grows the arrays
	// fewer times and by less than append would.
	if cap(f.uRow) < nnz {
		f.uRow, f.uVal = make([]int32, 0, nnz+nnz/4), make([]float64, 0, nnz+nnz/4)
	}
	colLen := func(pos int32) int32 { v := s.basic[pos]; return s.colPtr[v+1] - s.colPtr[v] }
	slices.SortFunc(f.order, func(a, b int32) int {
		if d := colLen(a) - colLen(b); d != 0 {
			return int(d)
		}
		return int(s.basic[a] - s.basic[b])
	})
	freeRow := int32(0) // scans for unpivoted rows when repairing
	for _, pos := range f.order {
		v := s.basic[pos]
		for k := s.colPtr[v]; k < s.colPtr[v+1]; k++ {
			s.row.set(s.colRow[k], s.colVal[k])
		}
		if f.eliminate(step, pos, &s.row) {
			step++
			continue
		}
		// Dependent column: hand its position to a slack, after the loop.
		s.evict(pos)
	}
	for pos, v := range s.basic {
		if v >= 0 {
			continue
		}
		for f.rowStep[freeRow] >= 0 {
			freeRow++
		}
		s.enter(int32(pos), int32(s.n)+freeRow)
		f.pivot(step, int32(pos), freeRow, 1)
		step++
	}
	f.transposeU()
}

// transposeU builds uT from the U columns.
func (f *factor) transposeU() {
	clear(f.uTPtr)
	for _, r := range f.uRow {
		f.uTPtr[r+1]++
	}
	for i := range f.rowStep {
		f.uTPtr[i+1] += f.uTPtr[i]
	}
	if cap(f.uTStep) < len(f.uRow) {
		f.uTStep = make([]int32, len(f.uRow), cap(f.uRow))
	}
	f.uTStep = f.uTStep[:len(f.uRow)]
	// Fill each row's list using uTPtr[r] as its cursor, which leaves
	// uTPtr[r] at the start of row r+1; shift back after.
	for st := f.slackSteps; st < len(f.uDiag); st++ {
		for i := f.uPtr[st]; i < f.uPtr[st+1]; i++ {
			r := f.uRow[i]
			f.uTStep[f.uTPtr[r]] = int32(st)
			f.uTPtr[r]++
		}
	}
	for i := len(f.rowStep); i > 0; i-- {
		f.uTPtr[i] = f.uTPtr[i-1]
	}
	f.uTPtr[0] = 0
}

// pivot records step's pivot and closes its (so far written) L and U columns.
func (f *factor) pivot(step int, pos, row int32, diag float64) {
	f.stepRow[step], f.stepPos[step], f.rowStep[row], f.posStep[pos] = row, pos, int32(step), int32(step)
	f.uDiag = append(f.uDiag, diag)
	f.uPtr = append(f.uPtr, int32(len(f.uRow)))
	f.lPtr = append(f.lPtr, int32(len(f.lRow)))
}

// eliminate runs one left-looking step on the column scattered in w:
// apply the earlier L columns, split the result into its U part (rows
// already pivoted) and its L part (the rest), and pick the pivot among the
// latter. It reports false, writing nothing, when no usable pivot is left.
func (f *factor) eliminate(step int, pos int32, w *sparse) bool {
	for _, k := range f.lSteps {
		t := w.val[f.stepRow[k]]
		if t == 0 {
			continue
		}
		for i := f.lPtr[k]; i < f.lPtr[k+1]; i++ {
			w.list(f.lRow[i])
			w.val[f.lRow[i]] -= t * f.lVal[i]
		}
	}
	maxAbs := 0.0
	for _, r := range w.idx {
		if f.rowStep[r] < 0 {
			maxAbs = math.Max(maxAbs, math.Abs(w.val[r]))
		}
	}
	ok := maxAbs > singularTol
	if ok {
		piv := int32(-1)
		for _, r := range w.idx {
			if f.rowStep[r] >= 0 || math.Abs(w.val[r]) < pivotThreshold*maxAbs {
				continue
			}
			if piv < 0 || f.rowCount[r] < f.rowCount[piv] || (f.rowCount[r] == f.rowCount[piv] && r < piv) {
				piv = r
			}
		}
		diag := w.val[piv]
		for _, r := range w.idx {
			switch {
			case w.val[r] == 0 || r == piv:
			case f.rowStep[r] >= 0:
				f.uRow = append(f.uRow, r)
				f.uVal = append(f.uVal, w.val[r])
			default:
				f.lRow = append(f.lRow, r)
				f.lVal = append(f.lVal, w.val[r]/diag)
			}
		}
		if int(f.lPtr[step]) < len(f.lRow) {
			f.lSteps = append(f.lSteps, int32(step))
		}
		f.pivot(step, pos, piv, diag)
	}
	w.reset()
	return ok
}

// sparse is a vector with the list of its indices that may be non-zero:
// every entry not listed is zero. The list keeps the order in which entries
// were first written unless its user sorts it.
type sparse struct {
	val []float64
	idx []int32
	in  []bool // index is listed
}

// resize readies v for n indices, every one zero and unlisted, reusing its
// arrays.
func (v *sparse) resize(n int) {
	v.val, v.idx, v.in = fit(v.val, n), slices.Grow(v.idx[:0], n), fit(v.in, n)
}

// list adds i to the list.
func (v *sparse) list(i int32) {
	if !v.in[i] {
		v.in[i] = true
		v.idx = append(v.idx, i)
	}
}

// set writes x at i and lists i.
func (v *sparse) set(i int32, x float64) {
	v.list(i)
	v.val[i] = x
}

// reset zeroes the listed entries and empties the list.
func (v *sparse) reset() {
	for _, i := range v.idx {
		v.val[i], v.in[i] = 0, false
	}
	v.idx = v.idx[:0]
}

// dense lists every index, for a caller that then writes every entry.
func (v *sparse) dense() {
	v.idx = v.idx[:0]
	for i := range v.val {
		v.in[i] = true
		v.idx = append(v.idx, int32(i))
	}
}

// push appends the eta of a pivot at basis position r whose entering column,
// solved through the current factorisation, is col (position-indexed, its
// list sorted so that the eta's entries are in position order).
func (f *factor) push(r int32, col *sparse) {
	bit := uint64(1) << len(f.ePos)
	f.ePos = append(f.ePos, r)
	f.ePiv = append(f.ePiv, col.val[r])
	f.etaMask[r] |= bit
	for _, i := range col.idx {
		if v := col.val[i]; v != 0 && i != r {
			f.eIdx = append(f.eIdx, i)
			f.eVal = append(f.eVal, v)
			f.etaMask[i] |= bit
		}
	}
	f.ePtr = append(f.ePtr, int32(len(f.eIdx)))
}

// ftran solves B*x = w: w is row-indexed and left empty, x position-indexed
// and overwritten. Only listed entries are read or written; a dense caller
// lists every index.
func (f *factor) ftran(w, x *sparse) {
	x.reset()
	for _, k := range f.lSteps {
		t := w.val[f.stepRow[k]]
		if t == 0 {
			continue
		}
		for i := f.lPtr[k]; i < f.lPtr[k+1]; i++ {
			w.list(f.lRow[i])
			w.val[f.lRow[i]] -= t * f.lVal[i]
		}
	}
	for st := len(f.uDiag) - 1; st >= f.slackSteps; st-- {
		row := f.stepRow[st]
		if !w.in[row] {
			continue
		}
		z := w.val[row]
		if z != 0 {
			z /= f.uDiag[st]
			for i := f.uPtr[st]; i < f.uPtr[st+1]; i++ {
				w.list(f.uRow[i])
				w.val[f.uRow[i]] -= z * f.uVal[i]
			}
		}
		x.set(f.stepPos[st], z)
	}
	for _, row := range w.idx {
		if st := f.rowStep[row]; int(st) < f.slackSteps {
			x.set(f.stepPos[st], w.val[row])
		}
	}
	for e, r := range f.ePos {
		t := x.val[r]
		if t == 0 {
			continue
		}
		t /= f.ePiv[e]
		x.val[r] = t
		for i := f.ePtr[e]; i < f.ePtr[e+1]; i++ {
			x.list(f.eIdx[i])
			x.val[f.eIdx[i]] -= t * f.eVal[i]
		}
	}
	w.reset()
}

// btran solves y*B = c: c is position-indexed and left empty, y row-indexed
// and overwritten. An eta runs only when its position or one of its entries
// is listed, a U step only when its position or a row of its U column is,
// found through etaMask and uT; a dense caller lists every index.
func (f *factor) btran(c, y *sparse) {
	y.reset()
	due := uint64(0) // the etas that read a listed position
	for _, i := range c.idx {
		due |= f.etaMask[i]
	}
	for due != 0 {
		e := 63 - bits.LeadingZeros64(due) // newest first
		due &^= 1 << e
		r := f.ePos[e]
		t := c.val[r]
		for i := f.ePtr[e]; i < f.ePtr[e+1]; i++ {
			t -= c.val[f.eIdx[i]] * f.eVal[i]
		}
		if !c.in[r] {
			c.list(r)
			due |= f.etaMask[r] & (1<<e - 1)
		}
		c.val[r] = t / f.ePiv[e]
	}
	for _, pos := range c.idx {
		if st := f.posStep[pos]; int(st) < f.slackSteps {
			y.set(f.stepRow[st], c.val[pos])
			f.wakeU(f.stepRow[st])
		} else {
			f.uOn[st] = true
		}
	}
	for st := f.slackSteps; st < len(f.uDiag); st++ {
		if !f.uOn[st] {
			continue
		}
		f.uOn[st] = false
		t := c.val[f.stepPos[st]]
		for i := f.uPtr[st]; i < f.uPtr[st+1]; i++ {
			t -= y.val[f.uRow[i]] * f.uVal[i]
		}
		if t != 0 {
			t /= f.uDiag[st]
		}
		y.set(f.stepRow[st], t)
		f.wakeU(f.stepRow[st])
	}
	for j := len(f.lSteps) - 1; j >= 0; j-- {
		k := f.lSteps[j]
		row := f.stepRow[k]
		t := y.val[row]
		for i := f.lPtr[k]; i < f.lPtr[k+1]; i++ {
			t -= y.val[f.lRow[i]] * f.lVal[i]
		}
		if t != 0 || y.in[row] {
			y.set(row, t)
		}
	}
	c.reset()
}

// wakeU flags the steps whose U column has an entry in row.
func (f *factor) wakeU(row int32) {
	for k := f.uTPtr[row]; k < f.uTPtr[row+1]; k++ {
		f.uOn[f.uTStep[k]] = true
	}
}
