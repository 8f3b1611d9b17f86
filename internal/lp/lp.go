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
// every basis indexes its full variable space. A Problem keeps its CSC
// matrix and simplex workspace between solves, so re-solving it under new
// bounds (a branch-and-bound node) allocates only the result. The original
// two-phase dense tableau simplex lives on in the tests as the oracle the
// sparse solver is checked against.
package lp

import (
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

// Problem is a linear program under construction. Solving a problem
// writes its cached workspace, so one Problem must not be solved from two
// goroutines at once; give each goroutine its own Clone.
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

	// Stop, when non-nil, is polled between pivots; once it is closed the
	// solve gives up with Status IterationLimit. It is how the
	// branch-and-bound layer makes a cancelled context interrupt a solve
	// mid-node instead of waiting out a full simplex run.
	Stop <-chan struct{}

	// a is the constraint matrix in CSC form, built by the first solve and
	// shared read-only with clones; AddConstraint drops it.
	a *csc
	// ws is the simplex workspace the last solve left behind, reused by
	// the next one; AddConstraint drops it with the shape it was sized for.
	ws *spx
}

// stopRequested polls the Stop channel without blocking.
func (p *Problem) stopRequested() bool { return closed(p.Stop) }

// closed reports, without blocking, whether stop is closed (false for nil).
func closed(stop <-chan struct{}) bool {
	if stop == nil {
		return false
	}
	select {
	case <-stop:
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
// appending constraints without affecting the other. The clone shares the
// CSC matrix read-only once p has built it, and gets a workspace of its
// own on its first solve.
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
		a:        p.a,
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
	p.a, p.ws = nil, nil
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

const eps = 1e-9

// Solve runs the sparse revised simplex from a cold (all-logical) basis
// and returns the result. Every outcome, an infeasible or unbounded model
// or a stopped solve included, is reported through Result.Status.
func Solve(p *Problem) *Result {
	return SolveWarm(p, nil)
}

// SolveWarm solves p starting from a previous basis (nil means cold) and
// returns the final basis in Result.Basis on Optimal solves. The warm
// basis is not modified; branch-and-bound children share their parent's
// basis by pointer.
func SolveWarm(p *Problem, warm *Basis) *Result {
	res, basis := solveSparse(p, warm)
	res.Basis = basis
	return res
}
