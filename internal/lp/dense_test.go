package lp

import (
	"errors"
	"fmt"
	"math"
)

// errBadProblem reports a problem the dense oracle cannot represent.
var errBadProblem = errors.New("lp: invalid problem")

// solveDense runs the dense two-phase tableau simplex, the oracle the
// sparse solver is property-tested against. Unlike the sparse solver it
// cannot represent free variables (lower bound -inf) and reports them as
// errBadProblem.
func solveDense(p *Problem) (*Result, error) {
	for j := 0; j < p.numVars; j++ {
		if p.lower[j] > p.upper[j]+eps {
			return &Result{Status: Infeasible}, nil
		}
		if math.IsInf(p.lower[j], -1) {
			return nil, fmt.Errorf("%w: variable %d has no finite lower bound", errBadProblem, j)
		}
	}
	t := newTableau(p)
	if t == nil { // stopped while building the tableau
		return &Result{Status: IterationLimit}, nil
	}
	res := t.solve()
	return res, nil
}

// tableau is the dense simplex working state. Columns are laid out as
// [shifted decision vars | slacks/surpluses | artificials]; the last column
// of each row is the right-hand side.
type tableau struct {
	p *Problem

	rows, cols int // constraint rows, total structural columns (excluding rhs)
	nDecision  int
	nArt       int
	artStart   int

	a     [][]float64 // rows x (cols+1)
	basis []int

	objRow []float64 // cols+1, current phase objective (reduced costs layout)

	maxIters int
}

func newTableau(p *Problem) *tableau {
	// Count extra rows for finite upper bounds.
	type row struct {
		terms []Term
		op    Op
		rhs   float64
	}
	var rowsList []row
	for _, c := range p.cons {
		rowsList = append(rowsList, row{terms: c.terms, op: c.op, rhs: c.rhs})
	}
	for j := 0; j < p.numVars; j++ {
		if !math.IsInf(p.upper[j], 1) {
			rowsList = append(rowsList, row{
				terms: []Term{{Var: j, Coeff: 1}},
				op:    LE,
				rhs:   p.upper[j],
			})
		}
	}

	m := len(rowsList)
	t := &tableau{p: p, rows: m, nDecision: p.numVars}

	// Shift variables by their lower bounds: x = x' + lo, x' >= 0.
	shiftRHS := func(terms []Term, rhs float64) float64 {
		for _, term := range terms {
			rhs -= term.Coeff * p.lower[term.Var]
		}
		return rhs
	}

	// First pass: determine slack and artificial counts.
	nSlack := 0
	for i := range rowsList {
		rhs := shiftRHS(rowsList[i].terms, rowsList[i].rhs)
		op := rowsList[i].op
		if rhs < 0 {
			op = flip(op)
		}
		if op != EQ {
			nSlack++
		}
	}
	nArt := 0
	for i := range rowsList {
		rhs := shiftRHS(rowsList[i].terms, rowsList[i].rhs)
		op := rowsList[i].op
		if rhs < 0 {
			op = flip(op)
		}
		if op != LE {
			nArt++
		}
	}
	t.nArt = nArt
	t.artStart = p.numVars + nSlack
	t.cols = p.numVars + nSlack + nArt

	// Allocating and filling the dense matrix is the most expensive
	// non-pivot work (hundreds of MB for the big exact formulations), so
	// honour Stop here too — otherwise a cancelled branch-and-bound run
	// would stall behind every node's tableau build.
	t.a = make([][]float64, m)
	for i := range t.a {
		if i&1023 == 0 && p.stopRequested() {
			return nil
		}
		t.a[i] = make([]float64, t.cols+1)
	}
	t.basis = make([]int, m)

	slackIdx := p.numVars
	artIdx := t.artStart
	for i, r := range rowsList {
		if i&1023 == 0 && p.stopRequested() {
			return nil
		}
		rhs := shiftRHS(r.terms, r.rhs)
		sign := 1.0
		op := r.op
		if rhs < 0 {
			sign = -1
			rhs = -rhs
			op = flip(op)
		}
		for _, term := range r.terms {
			t.a[i][term.Var] += sign * term.Coeff
		}
		t.a[i][t.cols] = rhs
		switch op {
		case LE:
			t.a[i][slackIdx] = 1
			t.basis[i] = slackIdx
			slackIdx++
		case GE:
			t.a[i][slackIdx] = -1
			slackIdx++
			t.a[i][artIdx] = 1
			t.basis[i] = artIdx
			artIdx++
		case EQ:
			t.a[i][artIdx] = 1
			t.basis[i] = artIdx
			artIdx++
		}
	}

	t.maxIters = p.MaxIters
	if t.maxIters <= 0 {
		t.maxIters = 50*(m+t.cols) + 10000
	}
	return t
}

func flip(op Op) Op {
	switch op {
	case LE:
		return GE
	case GE:
		return LE
	default:
		return EQ
	}
}

// solve runs phase 1 (if artificials exist) and phase 2.
func (t *tableau) solve() *Result {
	iters := 0

	if t.nArt > 0 {
		// Phase 1: maximize -(sum of artificials).
		t.objRow = make([]float64, t.cols+1)
		for j := t.artStart; j < t.cols; j++ {
			t.objRow[j] = -1
		}
		t.priceOut()
		st, n := t.iterate(t.maxIters)
		iters += n
		if st == IterationLimit {
			return &Result{Status: IterationLimit, Iters: iters}
		}
		if t.objValue() < -1e-7 {
			return &Result{Status: Infeasible, Iters: iters}
		}
		t.purgeArtificials()
	}

	// Phase 2: the real objective on the shifted variables.
	t.objRow = make([]float64, t.cols+1)
	sign := 1.0
	if !t.p.maximize {
		sign = -1
	}
	for j := 0; j < t.nDecision; j++ {
		t.objRow[j] = sign * t.p.obj[j]
	}
	t.priceOut()
	st, n := t.iterate(t.maxIters - iters)
	iters += n
	if st == Unbounded {
		return &Result{Status: Unbounded, Iters: iters}
	}
	if st == IterationLimit {
		return &Result{Status: IterationLimit, Iters: iters}
	}

	x := make([]float64, t.nDecision)
	for j := range x {
		x[j] = t.p.lower[j]
	}
	for i, b := range t.basis {
		if b < t.nDecision {
			x[b] = t.p.lower[b] + t.a[i][t.cols]
		}
	}
	obj := 0.0
	for j, c := range t.p.obj {
		obj += c * x[j]
	}
	return &Result{Status: Optimal, Objective: obj, X: x, Iters: iters}
}

// priceOut rewrites the objective row in terms of the current non-basic
// variables (subtracts multiples of the constraint rows so that basic
// columns have zero reduced cost).
func (t *tableau) priceOut() {
	for i, b := range t.basis {
		c := t.objRow[b]
		if c == 0 {
			continue
		}
		for j := 0; j <= t.cols; j++ {
			t.objRow[j] -= c * t.a[i][j]
		}
	}
}

// objValue returns the current phase objective value (for the maximization
// form used internally).
func (t *tableau) objValue() float64 { return -t.objRow[t.cols] }

// iterate performs simplex pivots until optimality, unboundedness or the
// iteration budget is exhausted. It uses Dantzig pricing and switches to
// Bland's rule after a long stall to guarantee termination.
func (t *tableau) iterate(budget int) (Status, int) {
	iters := 0
	blandAfter := 2*(t.rows+t.cols) + 200
	for {
		if iters >= budget {
			return IterationLimit, iters
		}
		if t.p.stopRequested() {
			return IterationLimit, iters
		}
		useBland := iters > blandAfter

		// Choose entering column: most positive reduced cost (Dantzig) or
		// first positive (Bland).
		enter := -1
		best := eps
		for j := 0; j < t.cols; j++ {
			rc := t.objRow[j]
			if rc > eps {
				if useBland {
					enter = j
					break
				}
				if rc > best {
					best = rc
					enter = j
				}
			}
		}
		if enter < 0 {
			return Optimal, iters
		}

		// Ratio test.
		leave := -1
		var bestRatio float64
		for i := 0; i < t.rows; i++ {
			a := t.a[i][enter]
			if a > eps {
				ratio := t.a[i][t.cols] / a
				if leave < 0 || ratio < bestRatio-eps ||
					(math.Abs(ratio-bestRatio) <= eps && t.basis[i] < t.basis[leave]) {
					leave = i
					bestRatio = ratio
				}
			}
		}
		if leave < 0 {
			return Unbounded, iters
		}

		t.pivot(leave, enter)
		iters++
	}
}

// pivot makes column `enter` basic in row `leave`.
func (t *tableau) pivot(leave, enter int) {
	piv := t.a[leave][enter]
	invPiv := 1.0 / piv
	rowL := t.a[leave]
	for j := 0; j <= t.cols; j++ {
		rowL[j] *= invPiv
	}
	for i := 0; i < t.rows; i++ {
		if i == leave {
			continue
		}
		f := t.a[i][enter]
		if f == 0 {
			continue
		}
		row := t.a[i]
		for j := 0; j <= t.cols; j++ {
			row[j] -= f * rowL[j]
		}
	}
	f := t.objRow[enter]
	if f != 0 {
		for j := 0; j <= t.cols; j++ {
			t.objRow[j] -= f * rowL[j]
		}
	}
	t.basis[leave] = enter
}

// purgeArtificials removes artificial variables from the basis after phase 1
// when possible, and neutralises their columns so phase 2 never re-enters
// them.
func (t *tableau) purgeArtificials() {
	for i := 0; i < t.rows; i++ {
		if t.basis[i] < t.artStart {
			continue
		}
		// Basic artificial at (numerically) zero level: try to pivot in any
		// non-artificial column with a nonzero coefficient.
		pivoted := false
		for j := 0; j < t.artStart; j++ {
			if math.Abs(t.a[i][j]) > 1e-7 {
				t.pivot(i, j)
				pivoted = true
				break
			}
		}
		if !pivoted {
			// Row is redundant; leave the artificial basic at level ~0.
			t.a[i][t.cols] = 0
		}
	}
	// Block artificial columns from ever being selected again.
	for i := 0; i < t.rows; i++ {
		for j := t.artStart; j < t.cols; j++ {
			t.a[i][j] = 0
		}
	}
}
