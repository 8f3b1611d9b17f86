// Package lp implements linear-programming solvers for the planner. It is
// the drop-in substitute for the commercial LP/ILP solver (GUROBI) used by
// the E-BLOW paper: the planner only needs LP relaxation values and vertex
// solutions of small and medium sized programs, plus an exact backend for
// the branch-and-bound ILP solver in package ilp.
//
// Problems are stated as
//
//	maximize (or minimize)  c'x
//	subject to              a_i'x  (<=, =, >=)  b_i        for every row i
//	                        lo_j <= x_j <= up_j             for every column j
//
// Lower bounds default to 0 and upper bounds to +inf.
//
// Every solve goes through one revised simplex over a CSC matrix with an
// LU-factorized basis, product-form updates and native bounded variables:
// Solve starts it from the all-logical basis, SolveWarm from a caller's
// basis (dual-simplex warm starts). The problem is solved as stated, so
// every basis indexes its full variable space. The original two-phase
// dense tableau simplex (solveDense) stays as the property-test oracle;
// unlike the sparse solver it rejects free variables (lower bound -inf).
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Op is a constraint comparison operator.
type Op int

const (
	// LE is a <= constraint.
	LE Op = iota
	// GE is a >= constraint.
	GE
	// EQ is an equality constraint.
	EQ
)

func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Status describes the outcome of a solve.
type Status int

const (
	// Optimal means an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible means the constraint system has no solution.
	Infeasible
	// Unbounded means the objective can be improved without limit.
	Unbounded
	// IterationLimit means the solver gave up after MaxIters pivots.
	IterationLimit
)

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
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Term is one coefficient of a sparse constraint row.
type Term struct {
	Var   int
	Coeff float64
}

type constraint struct {
	terms []Term
	op    Op
	rhs   float64
}

// Problem is a linear program under construction.
type Problem struct {
	numVars  int
	maximize bool
	obj      []float64
	lower    []float64
	upper    []float64
	cons     []constraint

	// MaxIters bounds the total number of simplex pivots (both phases).
	// Zero means the default of 50*(rows+cols)+10000.
	MaxIters int

	// Stop, when non-nil, is polled between pivots and while the dense
	// tableau is being built; once it is closed the solve gives up with
	// Status IterationLimit. It is how the branch-and-bound layer makes a
	// cancelled context interrupt a solve mid-node instead of waiting out
	// a full simplex run.
	Stop <-chan struct{}
}

// stopRequested polls the Stop channel without blocking.
func (p *Problem) stopRequested() bool {
	if p.Stop == nil {
		return false
	}
	select {
	case <-p.Stop:
		return true
	default:
		return false
	}
}

// NewProblem creates a problem with n decision variables, objective 0 and
// default bounds [0, +inf).
func NewProblem(n int) *Problem {
	p := &Problem{
		numVars: n,
		obj:     make([]float64, n),
		lower:   make([]float64, n),
		upper:   make([]float64, n),
	}
	for i := range p.upper {
		p.upper[i] = math.Inf(1)
	}
	return p
}

// Clone returns an independent copy of the problem for concurrent solving:
// objective, bounds and the constraint list are copied, so SetBounds and
// Solve on the clone never touch the original (and vice versa). The Stop
// channel is shared, which is exactly what a parallel branch-and-bound
// search wants — one cancellation interrupts every per-worker simplex at
// once. Constraint term slices are shared read-only; both sides may keep
// appending constraints without affecting the other.
func (p *Problem) Clone() *Problem {
	return &Problem{
		numVars:  p.numVars,
		maximize: p.maximize,
		obj:      append([]float64(nil), p.obj...),
		lower:    append([]float64(nil), p.lower...),
		upper:    append([]float64(nil), p.upper...),
		cons:     append([]constraint(nil), p.cons...),
		MaxIters: p.MaxIters,
		Stop:     p.Stop,
	}
}

// NumVars returns the number of decision variables.
func (p *Problem) NumVars() int { return p.numVars }

// SetObjective sets the objective coefficients and direction.
func (p *Problem) SetObjective(c []float64, maximize bool) {
	if len(c) != p.numVars {
		panic(fmt.Sprintf("lp: objective has %d coefficients for %d variables", len(c), p.numVars))
	}
	copy(p.obj, c)
	p.maximize = maximize
}

// SetBounds sets the bounds of variable j.
func (p *Problem) SetBounds(j int, lo, hi float64) {
	p.lower[j] = lo
	p.upper[j] = hi
}

// LowerBound returns the lower bound of variable j.
func (p *Problem) LowerBound(j int) float64 { return p.lower[j] }

// UpperBound returns the upper bound of variable j.
func (p *Problem) UpperBound(j int) float64 { return p.upper[j] }

// AddConstraint appends the row  sum(terms) op rhs. Terms referencing the
// same variable are accumulated.
func (p *Problem) AddConstraint(terms []Term, op Op, rhs float64) {
	for _, t := range terms {
		if t.Var < 0 || t.Var >= p.numVars {
			panic(fmt.Sprintf("lp: constraint references variable %d of %d", t.Var, p.numVars))
		}
	}
	cp := make([]Term, len(terms))
	copy(cp, terms)
	p.cons = append(p.cons, constraint{terms: cp, op: op, rhs: rhs})
}

// AddDense appends a dense constraint row.
func (p *Problem) AddDense(coeffs []float64, op Op, rhs float64) {
	if len(coeffs) != p.numVars {
		panic("lp: dense row length mismatch")
	}
	var terms []Term
	for j, c := range coeffs {
		if c != 0 {
			terms = append(terms, Term{Var: j, Coeff: c})
		}
	}
	p.AddConstraint(terms, op, rhs)
}

// Result is the outcome of a solve.
type Result struct {
	Status    Status
	Objective float64
	X         []float64
	Iters     int

	// Basis is the optimal simplex basis in status form, set by the sparse
	// solver (Solve, SolveWarm) on Optimal solves.
	// It is shared immutably: never mutate it.
	Basis *Basis
}

// ErrBadProblem reports a structurally invalid problem.
var ErrBadProblem = errors.New("lp: invalid problem")

const eps = 1e-9

// Solve runs the sparse revised simplex from a cold (all-logical) basis
// and returns the result. The returned error is non-nil only for
// structurally invalid problems; an infeasible or unbounded model is
// reported through Result.Status.
func Solve(p *Problem) (*Result, error) {
	return SolveWarm(p, nil)
}

// SolveWarm solves p starting from a previous basis (nil means cold) and
// returns the final basis in Result.Basis on Optimal solves. The warm
// basis is not modified; branch-and-bound children share their parent's
// basis by pointer.
func SolveWarm(p *Problem, warm *Basis) (*Result, error) {
	res, basis, err := solveSparse(p, warm)
	if err != nil {
		return nil, err
	}
	res.Basis = basis
	return res, nil
}

// solveDense runs the dense two-phase tableau simplex, the oracle the
// sparse solver is property-tested against. Unlike the sparse solver it
// cannot represent free variables (lower bound -inf) and reports them as
// ErrBadProblem.
func solveDense(p *Problem) (*Result, error) {
	for j := 0; j < p.numVars; j++ {
		if p.lower[j] > p.upper[j]+eps {
			return &Result{Status: Infeasible}, nil
		}
		if math.IsInf(p.lower[j], -1) {
			return nil, fmt.Errorf("%w: variable %d has no finite lower bound", ErrBadProblem, j)
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
