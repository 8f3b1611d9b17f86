package lp

import "math"

// luFactor is a sparse LU factorization of the simplex basis matrix with
// product-form (eta) updates appended per pivot. The factorization is a
// column-ordered Doolittle elimination with partial pivoting over the
// basis columns; each pivot after that appends one eta transform instead
// of refactorizing, and the solver refactorizes from scratch every
// refactorEvery pivots (or when a pivot is numerically unusable) to keep
// the eta file short and the factors accurate.
//
// ftran solves B z = rhs (z indexed by basis position), btran solves
// B' y = c (c indexed by basis position, y by row) — the two kernels every
// revised-simplex iteration is built from.
//
// Every array is kept across factorizations and only truncated, so once
// the buffers have grown to a basis's size, refactorizing and updating
// allocate nothing.
type luFactor struct {
	m int

	// LU factors, one entry per pivot t in elimination order, stored
	// flat: pivRow[t] is the pivot row, pivVal[t] the pivot value,
	// lIdx/lVal[lPtr[t]:lPtr[t+1]] the below-pivot multipliers (rows still
	// unpivoted at stage t) and uIdx/uVal[uPtr[t]:uPtr[t+1]] the column-t
	// entries of U in earlier pivot coordinates (t2 < t).
	pivRow []int32
	pivVal []float64
	lPtr   []int32
	lIdx   []int32
	lVal   []float64
	uPtr   []int32
	uIdx   []int32
	uVal   []float64

	// Product-form update etas, in application order, stored flat the same
	// way: eta e replaced basis position etaPos[e], etaPiv[e] is the pivot
	// element of the transformed entering column and
	// etaIdx/etaVal[etaPtr[e]:etaPtr[e+1]] its remaining nonzero entries.
	etaPos []int32
	etaPiv []float64
	etaPtr []int32
	etaIdx []int32
	etaVal []float64

	// Scratch: the dense elimination column, its nonzero rows, the rows
	// pivoted so far, the repairs of the last factorization and the
	// triangular solves' pivot-coordinate vector.
	work    []float64
	touched []int32
	pivoted []bool
	repairs []basisRepair
	ybuf    []float64
}

// singTol is the absolute pivot magnitude below which a basis column is
// treated as linearly dependent and replaced by a logical column.
const singTol = 1e-10

// luDropTol drops negligible fill-in from the stored factors.
const luDropTol = 1e-13

// refactorEvery bounds the eta file length before the solver rebuilds the
// LU factors from scratch.
const refactorEvery = 64

// stopPollEvery is how many basis columns factorize eliminates between
// polls of the stop channel. One column costs a scan over every row, so a
// factorization of a large basis would otherwise delay a cancel by
// seconds.
const stopPollEvery = 64

// basisRepair records one column the factorization had to replace: the
// basis position, the variable that was evicted, and the logical variable
// (expressed as a row index) that took its place.
type basisRepair struct {
	pos    int
	oldVar int
	row    int
}

// factorize rebuilds the LU factors for the basis described by heading,
// whose structural columns (variables below n) are the columns of a and
// whose logical n+i is the unit column e_i. When a column turns out
// dependent it is replaced in heading by the logical of the
// lowest-numbered unpivoted row whose logical is not already basic, and
// the replacement is returned so the caller can fix variable statuses; the
// returned slice is valid until the next factorize. logicalInBasis must
// report, per row, whether that row's logical is currently in heading;
// factorize updates it for replacements.
//
// factorize polls stop every stopPollEvery columns and reports false once
// it is closed. The factors are then incomplete: the caller must not use
// them, and must factorize again before its next solve.
func (f *luFactor) factorize(heading []int, a *csc, n int, logicalInBasis []bool, stop <-chan struct{}) ([]basisRepair, bool) {
	m := len(heading)
	f.m = m
	f.pivRow = f.pivRow[:0]
	f.pivVal = f.pivVal[:0]
	f.lPtr = append(f.lPtr[:0], 0)
	f.lIdx = f.lIdx[:0]
	f.lVal = f.lVal[:0]
	f.uPtr = append(f.uPtr[:0], 0)
	f.uIdx = f.uIdx[:0]
	f.uVal = f.uVal[:0]
	f.etaPos = f.etaPos[:0]
	f.etaPiv = f.etaPiv[:0]
	f.etaPtr = append(f.etaPtr[:0], 0)
	f.etaIdx = f.etaIdx[:0]
	f.etaVal = f.etaVal[:0]
	if len(f.work) != m {
		f.work = make([]float64, m)
		f.pivoted = make([]bool, m)
		f.ybuf = make([]float64, m)
	}
	work := f.work
	clear(work)
	clear(f.pivoted)
	f.touched = f.touched[:0]
	f.repairs = f.repairs[:0]

	for t := 0; t < m; t++ {
		if t%stopPollEvery == stopPollEvery-1 && closed(stop) {
			return f.repairs, false
		}
		f.loadColumn(heading[t], a, n)
		uStart := len(f.uIdx)
		f.eliminate(t)

		// Partial pivoting over the unpivoted rows; strict max with the
		// smallest row index winning ties keeps the factorization (and
		// therefore the whole solve) deterministic.
		piv := -1
		best := 0.0
		for r := 0; r < m; r++ {
			if f.pivoted[r] {
				continue
			}
			if a := math.Abs(work[r]); a > best {
				best = a
				piv = r
			}
		}
		if piv < 0 || best <= singTol {
			// Dependent column: swap in the logical of the lowest
			// unpivoted row whose logical is still nonbasic. Its column
			// e_r passes through the prior eliminations untouched (r is
			// unpivoted, so no U entry fires), leaving a clean unit pivot.
			rr := -1
			for r := 0; r < m; r++ {
				if !f.pivoted[r] && !logicalInBasis[r] {
					rr = r
					break
				}
			}
			if rr < 0 {
				// Every unpivoted row's logical is already basic
				// elsewhere; fall back to any unpivoted row. The
				// duplicate heading entry is resolved by the caller
				// (cold restart); in practice this cannot happen because
				// a logical column is never dependent.
				for r := 0; r < m; r++ {
					if !f.pivoted[r] {
						rr = r
						break
					}
				}
			}
			f.repairs = append(f.repairs, basisRepair{pos: t, oldVar: heading[t], row: rr})
			if old := heading[t] - n; old >= 0 && old < m {
				logicalInBasis[old] = false
			}
			heading[t] = n + rr
			logicalInBasis[rr] = true
			f.loadColumn(heading[t], a, n)
			f.uIdx, f.uVal = f.uIdx[:uStart], f.uVal[:uStart]
			f.eliminate(t)
			piv = rr
			if work[piv] == 0 {
				work[piv] = 1 // defensive; e_rr survives elimination intact
			}
		}

		pv := work[piv]
		f.pivoted[piv] = true
		for _, r := range f.touched {
			if f.pivoted[r] {
				continue
			}
			v := work[r]
			if v == 0 {
				continue
			}
			// Consume the entry so a row listed twice in touched (set,
			// cancelled to zero, set again) is only extracted once.
			work[r] = 0
			if math.Abs(v) > luDropTol {
				f.lIdx = append(f.lIdx, r)
				f.lVal = append(f.lVal, v/pv)
			}
		}
		f.pivRow = append(f.pivRow, int32(piv))
		f.pivVal = append(f.pivVal, pv)
		f.lPtr = append(f.lPtr, int32(len(f.lIdx)))
		f.uPtr = append(f.uPtr, int32(len(f.uIdx)))
	}
	return f.repairs, true
}

// loadColumn clears the previous column from work and scatters variable
// v's standard-form column into it, listing every row it makes nonzero in
// touched.
func (f *luFactor) loadColumn(v int, a *csc, n int) {
	for _, r := range f.touched {
		f.work[r] = 0
	}
	f.touched = f.touched[:0]
	if v >= n {
		f.scatter(int32(v-n), 1)
		return
	}
	for k := a.colPtr[v]; k < a.colPtr[v+1]; k++ {
		f.scatter(a.rowIdx[k], a.colVal[k])
	}
}

// scatter adds val to work[row], listing row in touched when it turns
// nonzero.
func (f *luFactor) scatter(row int32, val float64) {
	if f.work[row] == 0 && val != 0 {
		f.touched = append(f.touched, row)
	}
	f.work[row] += val
}

// eliminate applies the first t pivots to the column in work, appending
// the column's U entries to uIdx/uVal.
func (f *luFactor) eliminate(t int) {
	work := f.work
	for t2 := 0; t2 < t; t2++ {
		pr := f.pivRow[t2]
		fv := work[pr]
		if fv == 0 {
			continue
		}
		f.uIdx = append(f.uIdx, int32(t2))
		f.uVal = append(f.uVal, fv)
		work[pr] = 0
		for k := f.lPtr[t2]; k < f.lPtr[t2+1]; k++ {
			row := f.lIdx[k]
			if work[row] == 0 {
				f.touched = append(f.touched, row)
			}
			work[row] -= fv * f.lVal[k]
		}
	}
}

// ftran solves B z = rhs in place: rhs is indexed by row on input and by
// basis position on output.
func (f *luFactor) ftran(v []float64) {
	m := f.m
	y := f.ybuf[:m]
	// L pass (row space -> pivot coordinates).
	for t := 0; t < m; t++ {
		ft := v[f.pivRow[t]]
		if ft != 0 {
			for k := f.lPtr[t]; k < f.lPtr[t+1]; k++ {
				v[f.lIdx[k]] -= ft * f.lVal[k]
			}
		}
		y[t] = ft
	}
	// U back substitution.
	for t := m - 1; t >= 0; t-- {
		x := y[t] / f.pivVal[t]
		y[t] = x
		if x != 0 {
			for k := f.uPtr[t]; k < f.uPtr[t+1]; k++ {
				y[f.uIdx[k]] -= f.uVal[k] * x
			}
		}
	}
	copy(v, y)
	// Update etas, in application order.
	for e, pos := range f.etaPos {
		ft := v[pos] / f.etaPiv[e]
		v[pos] = ft
		if ft != 0 {
			for k := f.etaPtr[e]; k < f.etaPtr[e+1]; k++ {
				v[f.etaIdx[k]] -= f.etaVal[k] * ft
			}
		}
	}
}

// btran solves B' y = c in place: c is indexed by basis position on input
// and the result is indexed by row on output.
func (f *luFactor) btran(v []float64) {
	m := f.m
	// Update etas transposed, in reverse order.
	for e := len(f.etaPos) - 1; e >= 0; e-- {
		pos := f.etaPos[e]
		s := v[pos]
		for k := f.etaPtr[e]; k < f.etaPtr[e+1]; k++ {
			s -= f.etaVal[k] * v[f.etaIdx[k]]
		}
		v[pos] = s / f.etaPiv[e]
	}
	// U' forward substitution (basis positions -> pivot coordinates).
	y := f.ybuf[:m]
	for t := 0; t < m; t++ {
		s := v[t]
		for k := f.uPtr[t]; k < f.uPtr[t+1]; k++ {
			s -= f.uVal[k] * y[f.uIdx[k]]
		}
		y[t] = s / f.pivVal[t]
	}
	// L' backward pass scatters into row space.
	clear(v[:m])
	for t := m - 1; t >= 0; t-- {
		s := y[t]
		for k := f.lPtr[t]; k < f.lPtr[t+1]; k++ {
			s -= f.lVal[k] * v[f.lIdx[k]]
		}
		v[f.pivRow[t]] = s
	}
}

// update appends a product-form eta for a pivot that replaces basis
// position pos with a column whose ftran image is alpha (dense, indexed by
// basis position). It reports false when the pivot element is too small to
// be stable, in which case the caller must refactorize instead.
func (f *luFactor) update(pos int, alpha []float64) bool {
	piv := alpha[pos]
	if math.Abs(piv) < singTol {
		return false
	}
	for i, a := range alpha {
		if i == pos {
			continue
		}
		if math.Abs(a) > luDropTol {
			f.etaIdx = append(f.etaIdx, int32(i))
			f.etaVal = append(f.etaVal, a)
		}
	}
	f.etaPos = append(f.etaPos, int32(pos))
	f.etaPiv = append(f.etaPiv, piv)
	f.etaPtr = append(f.etaPtr, int32(len(f.etaIdx)))
	return true
}

// numEtas returns the current eta-file length (pivots since refactorize).
func (f *luFactor) numEtas() int { return len(f.etaPos) }
