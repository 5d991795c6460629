package lp

import (
	"math"
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

	work     []float64 // row-indexed scratch of build, zero between columns
	pattern  []int32   // rows of work touched by the current column
	inPat    []bool
	rowCount []int32 // basis non-zeros per row, build's sparsity measure
	order    []int32
}

func newFactor(m int) *factor {
	return &factor{
		stepRow: make([]int32, m), stepPos: make([]int32, m), rowStep: make([]int32, m),
		lPtr: make([]int32, 1, m+1), uPtr: make([]int32, 1, m+1), uDiag: make([]float64, 0, m),
		ePtr: make([]int32, 1, refactorEvery+1),
		work: make([]float64, m), inPat: make([]bool, m), rowCount: make([]int32, m),
	}
}

// etas is the number of pivots pushed since the last build.
func (f *factor) etas() int { return len(f.ePos) }

// build factorises the basis s.basic from scratch and empties the eta file.
// Slack columns pivot on their own row first; structural columns follow,
// sparsest first. A column that is numerically dependent on those before it
// is replaced in the basis by the slack of a row nothing pivoted on, its
// variable going nonbasic at the bound nearest its value.
func (f *factor) build(s *solver) {
	f.lSteps, f.lPtr, f.lRow, f.lVal = f.lSteps[:0], f.lPtr[:1], f.lRow[:0], f.lVal[:0]
	f.uPtr, f.uRow, f.uVal, f.uDiag = f.uPtr[:1], f.uRow[:0], f.uVal[:0], f.uDiag[:0]
	f.ePos, f.ePiv, f.ePtr, f.eIdx, f.eVal = f.ePos[:0], f.ePiv[:0], f.ePtr[:1], f.eIdx[:0], f.eVal[:0]
	for i := range f.rowStep {
		f.rowStep[i] = -1
		f.rowCount[i] = 0
	}
	f.order = f.order[:0]
	step := 0
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
	}
	f.slackSteps = step
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
			f.touch(s.colRow[k])
			f.work[s.colRow[k]] = s.colVal[k]
		}
		if f.eliminate(step, pos) {
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
}

func (f *factor) touch(row int32) {
	if !f.inPat[row] {
		f.inPat[row] = true
		f.pattern = append(f.pattern, row)
	}
}

// pivot records step's pivot and closes its (so far written) L and U columns.
func (f *factor) pivot(step int, pos, row int32, diag float64) {
	f.stepRow[step], f.stepPos[step], f.rowStep[row] = row, pos, int32(step)
	f.uDiag = append(f.uDiag, diag)
	f.uPtr = append(f.uPtr, int32(len(f.uRow)))
	f.lPtr = append(f.lPtr, int32(len(f.lRow)))
}

// eliminate runs one left-looking step on the column scattered in f.work:
// apply the earlier L columns, split the result into its U part (rows
// already pivoted) and its L part (the rest), and pick the pivot among the
// latter. It reports false, writing nothing, when no usable pivot is left.
func (f *factor) eliminate(step int, pos int32) bool {
	w := f.work
	for _, k := range f.lSteps {
		t := w[f.stepRow[k]]
		if t == 0 {
			continue
		}
		for i := f.lPtr[k]; i < f.lPtr[k+1]; i++ {
			f.touch(f.lRow[i])
			w[f.lRow[i]] -= t * f.lVal[i]
		}
	}
	maxAbs := 0.0
	for _, r := range f.pattern {
		if f.rowStep[r] < 0 {
			maxAbs = math.Max(maxAbs, math.Abs(w[r]))
		}
	}
	ok := maxAbs > singularTol
	if ok {
		piv := int32(-1)
		for _, r := range f.pattern {
			if f.rowStep[r] >= 0 || math.Abs(w[r]) < pivotThreshold*maxAbs {
				continue
			}
			if piv < 0 || f.rowCount[r] < f.rowCount[piv] || (f.rowCount[r] == f.rowCount[piv] && r < piv) {
				piv = r
			}
		}
		diag := w[piv]
		for _, r := range f.pattern {
			switch {
			case w[r] == 0 || r == piv:
			case f.rowStep[r] >= 0:
				f.uRow = append(f.uRow, r)
				f.uVal = append(f.uVal, w[r])
			default:
				f.lRow = append(f.lRow, r)
				f.lVal = append(f.lVal, w[r]/diag)
			}
		}
		if int(f.lPtr[step]) < len(f.lRow) {
			f.lSteps = append(f.lSteps, int32(step))
		}
		f.pivot(step, pos, piv, diag)
	}
	for _, r := range f.pattern {
		w[r], f.inPat[r] = 0, false
	}
	f.pattern = f.pattern[:0]
	return ok
}

// push appends the eta of a pivot at basis position r whose entering column,
// solved through the current factorisation, is col (position-indexed).
func (f *factor) push(r int32, col []float64) {
	f.ePos = append(f.ePos, r)
	f.ePiv = append(f.ePiv, col[r])
	for i, v := range col {
		if v != 0 && int32(i) != r {
			f.eIdx = append(f.eIdx, int32(i))
			f.eVal = append(f.eVal, v)
		}
	}
	f.ePtr = append(f.ePtr, int32(len(f.eIdx)))
}

// ftran solves B*x = w: w is row-indexed and destroyed, x position-indexed.
func (f *factor) ftran(w, x []float64) {
	for _, k := range f.lSteps {
		t := w[f.stepRow[k]]
		if t == 0 {
			continue
		}
		for i := f.lPtr[k]; i < f.lPtr[k+1]; i++ {
			w[f.lRow[i]] -= t * f.lVal[i]
		}
	}
	for s := len(f.uDiag) - 1; s >= f.slackSteps; s-- {
		z := w[f.stepRow[s]]
		if z != 0 {
			z /= f.uDiag[s]
			for i := f.uPtr[s]; i < f.uPtr[s+1]; i++ {
				w[f.uRow[i]] -= z * f.uVal[i]
			}
		}
		x[f.stepPos[s]] = z
	}
	for s, row := range f.stepRow[:f.slackSteps] {
		x[f.stepPos[s]] = w[row]
	}
	for e, r := range f.ePos {
		t := x[r]
		if t == 0 {
			continue
		}
		t /= f.ePiv[e]
		x[r] = t
		for i := f.ePtr[e]; i < f.ePtr[e+1]; i++ {
			x[f.eIdx[i]] -= t * f.eVal[i]
		}
	}
}

// btran solves y*B = c: c is position-indexed and destroyed, y row-indexed.
func (f *factor) btran(c, y []float64) {
	for e := len(f.ePos) - 1; e >= 0; e-- {
		r := f.ePos[e]
		t := c[r]
		for i := f.ePtr[e]; i < f.ePtr[e+1]; i++ {
			t -= c[f.eIdx[i]] * f.eVal[i]
		}
		c[r] = t / f.ePiv[e]
	}
	for s, row := range f.stepRow[:f.slackSteps] {
		y[row] = c[f.stepPos[s]]
	}
	for s := f.slackSteps; s < len(f.uDiag); s++ {
		t := c[f.stepPos[s]]
		for i := f.uPtr[s]; i < f.uPtr[s+1]; i++ {
			t -= y[f.uRow[i]] * f.uVal[i]
		}
		if t != 0 {
			t /= f.uDiag[s]
		}
		y[f.stepRow[s]] = t
	}
	for j := len(f.lSteps) - 1; j >= 0; j-- {
		k := f.lSteps[j]
		t := y[f.stepRow[k]]
		for i := f.lPtr[k]; i < f.lPtr[k+1]; i++ {
			t -= y[f.lRow[i]] * f.lVal[i]
		}
		y[f.stepRow[k]] = t
	}
}
