package lp

import (
	"cmp"
	"math"
	"slices"
)

// Sparse revised simplex over the standard form  A x + s = b  with native
// bounded variables: every structural variable x_j lives in [lo_j, up_j]
// (either side may be infinite) and every row i gets one logical s_i whose
// bounds encode the row sense (LE: [0,+inf), GE: (-inf,0], EQ: [0,0]).
// Nonbasic variables sit at a bound (or at 0 when free); the m basic
// values solve B x_B = b - N x_N through the LU factors in lu.go.
//
// The engine runs in internal MINIMIZE sense; maximize problems negate the
// cost vector and the final objective is recomputed from the original
// coefficients, so the reported objective carries no sign gymnastics.

// Solver tolerances. feasTol/dualTol are the primal/dual feasibility
// cutoffs, ratioTol classifies pivot column entries, dualPivTol is the
// minimum acceptable dual pivot before a refactorization is forced.
const (
	feasTol    = 1e-7
	dualTol    = 1e-7
	ratioTol   = 1e-9
	dualPivTol = 1e-8
	// degenStep: a ratio-test step at or below this counts as a
	// degenerate (stalling) pivot for the anti-cycling guard.
	degenStep = 1e-9
)

// stallLimit is the number of consecutive degenerate pivots tolerated
// before the pricing rule switches to Bland's rule (which cannot cycle)
// until the next strictly improving step. This is the anti-cycling guard:
// the stall budget is small, so a cycling LP costs tens of pivots instead
// of the whole MaxIters budget.
func stallLimit(m int) int { return 64 + m/4 }

// csc is a problem's constraint matrix in compressed sparse column form:
// the nonzeros of structural column j are rowIdx/colVal[colPtr[j]:colPtr[j+1]]
// in ascending row order. Logical column n+i is the unit column e_i and is
// never stored. A Problem builds it once and shares it read-only with its
// clones.
type csc struct {
	colPtr []int32
	rowIdx []int32
	colVal []float64
}

// buildCSC gathers p's constraint terms as (col,row,val) triplets, sorts
// them and accumulates duplicates within one row, mirroring the dense
// oracle's += semantics for repeated variables.
func buildCSC(p *Problem) *csc {
	type trip struct {
		col, row int32
		val      float64
	}
	var trips []trip
	for i, c := range p.cons {
		for _, t := range c.terms {
			if t.Coeff != 0 {
				trips = append(trips, trip{col: int32(t.Var), row: int32(i), val: t.Coeff})
			}
		}
	}
	slices.SortFunc(trips, func(a, b trip) int {
		if a.col != b.col {
			return cmp.Compare(a.col, b.col)
		}
		return cmp.Compare(a.row, b.row)
	})
	a := &csc{colPtr: make([]int32, p.numVars+1)}
	for k := 0; k < len(trips); {
		c, r := trips[k].col, trips[k].row
		v := trips[k].val
		k++
		for k < len(trips) && trips[k].col == c && trips[k].row == r {
			v += trips[k].val
			k++
		}
		if v != 0 {
			a.rowIdx = append(a.rowIdx, r)
			a.colVal = append(a.colVal, v)
			a.colPtr[c+1]++
		}
	}
	for c := 0; c < p.numVars; c++ {
		a.colPtr[c+1] += a.colPtr[c]
	}
	return a
}

// spx is the simplex workspace of one Problem. It is sized by the
// problem's shape (variables and rows) and kept on the problem between
// solves, so a branch-and-bound worker re-solving its clone under new
// bounds allocates nothing but the result. Every solve overwrites all of
// its state before reading it; what one solve leaves behind never reaches
// the next.
type spx struct {
	p   *Problem
	m   int // rows
	n   int // structural variables
	tot int // n + m

	*csc

	cost []float64 // internal minimize costs, len tot (logicals are 0)
	lo   []float64 // len tot
	up   []float64 // len tot
	b    []float64 // row rhs, len m

	status         []VarStatus
	heading        []int // basis position -> variable
	logicalInBasis []bool
	xB             []float64 // basic values by position

	lu luFactor

	iters    int
	maxIters int

	// scratch
	alpha []float64 // ftran image of the entering column, by position
	y     []float64 // btran image of the basic costs, by row
	rho   []float64 // btran image of a unit row vector, by row
	grad  []float64 // phase-1 cost gradient, by position
}

// newSpx sizes a workspace for p and fills the parts that only change with
// the constraint list: the CSC matrix (built on p unless a clone shares
// it), the row right-hand sides and the logicals' bounds.
func newSpx(p *Problem) *spx {
	n := p.numVars
	m := len(p.cons)
	if p.a == nil {
		p.a = buildCSC(p)
	}
	s := &spx{
		p: p, m: m, n: n, tot: n + m,
		csc:  p.a,
		cost: make([]float64, n+m),
		lo:   make([]float64, n+m),
		up:   make([]float64, n+m),
		b:    make([]float64, m),

		status:         make([]VarStatus, n+m),
		heading:        make([]int, m),
		logicalInBasis: make([]bool, m),
		xB:             make([]float64, m),

		alpha: make([]float64, m),
		y:     make([]float64, m),
		rho:   make([]float64, m),
		grad:  make([]float64, m),
	}
	for i, c := range p.cons {
		s.b[i] = c.rhs
		lj := n + i
		switch c.op {
		case LE:
			s.lo[lj], s.up[lj] = 0, math.Inf(1)
		case GE:
			s.lo[lj], s.up[lj] = math.Inf(-1), 0
		default: // EQ
			s.lo[lj], s.up[lj] = 0, 0
		}
	}
	return s
}

// load copies the parts of p a caller may change between solves (the
// objective, the bounds and MaxIters) into the workspace and resets the
// pivot count.
func (s *spx) load() {
	p := s.p
	for j := 0; j < s.n; j++ {
		if p.maximize {
			s.cost[j] = -p.obj[j]
		} else {
			s.cost[j] = p.obj[j]
		}
		s.lo[j] = p.lower[j]
		s.up[j] = p.upper[j]
	}
	s.iters = 0
	s.maxIters = p.MaxIters
	if s.maxIters <= 0 {
		s.maxIters = 50*(s.m+s.tot) + 10000
	}
}

// colScatter invokes fn for every nonzero of variable v's standard-form
// column (logical columns are the implicit unit vectors).
func (s *spx) colScatter(v int, fn func(row int32, val float64)) {
	if v < s.n {
		for k := s.colPtr[v]; k < s.colPtr[v+1]; k++ {
			fn(s.rowIdx[k], s.colVal[k])
		}
		return
	}
	fn(int32(v-s.n), 1)
}

// colDot returns A_v · w for a row-indexed vector w.
func (s *spx) colDot(v int, w []float64) float64 {
	if v >= s.n {
		return w[v-s.n]
	}
	d := 0.0
	for k := s.colPtr[v]; k < s.colPtr[v+1]; k++ {
		d += s.colVal[k] * w[s.rowIdx[k]]
	}
	return d
}

// nbVal returns the value a nonbasic variable holds under its status.
func (s *spx) nbVal(j int) float64 {
	switch s.status[j] {
	case AtLower:
		return s.lo[j]
	case AtUpper:
		return s.up[j]
	default:
		return 0
	}
}

// defaultStatus is the cold-start (and repair) status for a variable:
// its finite bound, preferring the lower one, or free when unbounded.
func (s *spx) defaultStatus(j int) VarStatus {
	if !math.IsInf(s.lo[j], -1) {
		return AtLower
	}
	if !math.IsInf(s.up[j], 1) {
		return AtUpper
	}
	return NonbasicFree
}

// normalizeStatus repairs a warm status that is inconsistent with the
// variable's current bounds (a bound may have changed since the basis was
// recorded; branch-and-bound children do exactly that).
func (s *spx) normalizeStatus(j int, st VarStatus) VarStatus {
	if st == Basic {
		return Basic
	}
	if s.lo[j] == s.up[j] {
		return AtLower
	}
	switch st {
	case AtLower:
		if math.IsInf(s.lo[j], -1) {
			return s.defaultStatus(j)
		}
	case AtUpper:
		if math.IsInf(s.up[j], 1) {
			return s.defaultStatus(j)
		}
	case NonbasicFree:
		if !math.IsInf(s.lo[j], -1) || !math.IsInf(s.up[j], 1) {
			return s.defaultStatus(j)
		}
	}
	return st
}

// adoptBasis installs a warm basis (or the cold all-logical basis when
// warm is nil or sized for a different problem) and repairs the basic
// count: extra basics are demoted from the highest variable index down,
// missing slots are filled with nonbasic logicals in ascending row order.
func (s *spx) adoptBasis(warm *Basis) {
	if warm == nil || len(warm.Status) != s.tot {
		for j := 0; j < s.tot; j++ {
			s.status[j] = s.defaultStatus(j)
		}
		for i := 0; i < s.m; i++ {
			s.status[s.n+i] = Basic
			s.heading[i] = s.n + i
			s.logicalInBasis[i] = true
		}
		return
	}
	basics := 0
	for j := 0; j < s.tot; j++ {
		s.status[j] = s.normalizeStatus(j, warm.Status[j])
		if s.status[j] == Basic {
			basics++
		}
	}
	for j := s.tot - 1; j >= 0 && basics > s.m; j-- {
		if s.status[j] == Basic {
			s.status[j] = s.defaultStatus(j)
			basics--
		}
	}
	for i := 0; i < s.m && basics < s.m; i++ {
		if s.status[s.n+i] != Basic {
			s.status[s.n+i] = Basic
			basics++
		}
	}
	pos := 0
	for i := range s.logicalInBasis {
		s.logicalInBasis[i] = false
	}
	for j := 0; j < s.tot; j++ {
		if s.status[j] == Basic {
			s.heading[pos] = j
			if j >= s.n {
				s.logicalInBasis[j-s.n] = true
			}
			pos++
		}
	}
}

// factorizeNow rebuilds the LU factors, applies any singularity repairs
// to the status vector, and recomputes the basic values.
func (s *spx) factorizeNow() {
	repairs := s.lu.factorize(s.heading, s.csc, s.n, s.logicalInBasis)
	for _, rp := range repairs {
		s.status[rp.oldVar] = s.defaultStatus(rp.oldVar)
		s.status[s.n+rp.row] = Basic
	}
	s.computeXB()
}

// computeXB solves B x_B = b - N x_N for the basic values.
func (s *spx) computeXB() {
	w := s.xB
	copy(w, s.b)
	for j := 0; j < s.tot; j++ {
		if s.status[j] == Basic {
			continue
		}
		v := s.nbVal(j)
		if v == 0 {
			continue
		}
		s.colScatter(j, func(r int32, val float64) {
			w[r] -= val * v
		})
	}
	s.lu.ftran(w)
}

func (s *spx) primalFeasible() bool {
	for i := 0; i < s.m; i++ {
		v := s.heading[i]
		if s.xB[i] < s.lo[v]-feasTol || s.xB[i] > s.up[v]+feasTol {
			return false
		}
	}
	return true
}

// btranCost fills s.y with B^-T c_B.
func (s *spx) btranCost() {
	for i := 0; i < s.m; i++ {
		s.y[i] = s.cost[s.heading[i]]
	}
	s.lu.btran(s.y)
}

func (s *spx) dualFeasible() bool {
	s.btranCost()
	for j := 0; j < s.tot; j++ {
		st := s.status[j]
		if st == Basic || s.lo[j] == s.up[j] {
			continue
		}
		d := s.cost[j] - s.colDot(j, s.y)
		switch st {
		case AtLower:
			if d < -dualTol {
				return false
			}
		case AtUpper:
			if d > dualTol {
				return false
			}
		default: // NonbasicFree
			if d < -dualTol || d > dualTol {
				return false
			}
		}
	}
	return true
}

// loadAlpha computes alpha = B^-1 A_enter by position.
func (s *spx) loadAlpha(enter int) {
	for i := range s.alpha {
		s.alpha[i] = 0
	}
	s.colScatter(enter, func(r int32, val float64) {
		s.alpha[r] = val
	})
	s.lu.ftran(s.alpha)
}

// pivot performs the basis exchange at position r: the entering variable
// becomes basic with value enterVal, the leaving variable takes leaveSt.
// alpha must already hold B^-1 A_enter.
func (s *spx) pivot(r, enter int, enterVal float64, leaveSt VarStatus) {
	leaveVar := s.heading[r]
	s.status[leaveVar] = leaveSt
	if leaveVar >= s.n {
		s.logicalInBasis[leaveVar-s.n] = false
	}
	s.status[enter] = Basic
	s.heading[r] = enter
	if enter >= s.n {
		s.logicalInBasis[enter-s.n] = true
	}
	s.xB[r] = enterVal
	if !s.lu.update(r, s.alpha) {
		s.factorizeNow()
	}
	s.iters++
}

// primal runs the phase-2 primal simplex (minimize) from a primal-feasible
// basis. Pricing is Dantzig (most negative reduced cost) with ties broken
// toward the smallest variable index; after stallLimit consecutive
// degenerate pivots it switches to Bland's rule until a strictly improving
// step lands, which guarantees termination on cycling LPs.
func (s *spx) primal() Status {
	bland := false
	stall := 0
	limit := stallLimit(s.m)
	for {
		if s.iters >= s.maxIters || s.p.stopRequested() {
			return IterationLimit
		}
		if s.lu.numEtas() >= refactorEvery {
			s.factorizeNow()
		}
		s.btranCost()
		enter := -1
		var sigma, dEnter float64
		best := dualTol
		for j := 0; j < s.tot; j++ {
			st := s.status[j]
			if st == Basic || s.lo[j] == s.up[j] {
				continue
			}
			d := s.cost[j] - s.colDot(j, s.y)
			var score, sg float64
			switch st {
			case AtLower:
				if d < -dualTol {
					score, sg = -d, 1
				}
			case AtUpper:
				if d > dualTol {
					score, sg = d, -1
				}
			default: // NonbasicFree
				if d < -dualTol {
					score, sg = -d, 1
				} else if d > dualTol {
					score, sg = d, -1
				}
			}
			if score == 0 {
				continue
			}
			if bland {
				enter, sigma, dEnter = j, sg, d
				break
			}
			if score > best {
				best, enter, sigma, dEnter = score, j, sg, d
			}
		}
		if enter < 0 {
			return Optimal
		}
		s.loadAlpha(enter)

		// Ratio test: the entering variable moves by t*sigma; each basic
		// value changes by -t*sigma*alpha_i. The entering variable's own
		// range bounds t (a full traverse is a bound flip).
		tMax := s.up[enter] - s.lo[enter]
		leave := -1
		bestT := tMax
		var leaveSt VarStatus
		var bestA float64
		for i := 0; i < s.m; i++ {
			a := s.alpha[i]
			if a < ratioTol && a > -ratioTol {
				continue
			}
			delta := -sigma * a
			v := s.heading[i]
			var room float64
			var st VarStatus
			if delta > 0 {
				if math.IsInf(s.up[v], 1) {
					continue
				}
				room = s.up[v] - s.xB[i]
				st = AtUpper
			} else {
				if math.IsInf(s.lo[v], -1) {
					continue
				}
				room = s.xB[i] - s.lo[v]
				st = AtLower
			}
			if room < 0 {
				room = 0
			}
			ratio := room / math.Abs(a)
			take := false
			if ratio < bestT-degenStep {
				take = true
			} else if leave >= 0 && ratio <= bestT+degenStep {
				// Tie: Bland takes the smallest basic variable; Dantzig
				// prefers the largest pivot magnitude, then the smallest
				// basic variable, keeping the pivot sequence deterministic.
				aa := math.Abs(a)
				if bland {
					take = v < s.heading[leave]
				} else if aa > bestA+degenStep {
					take = true
				} else if aa >= bestA-degenStep && v < s.heading[leave] {
					take = true
				}
			}
			if take {
				leave, bestT, leaveSt, bestA = i, ratio, st, math.Abs(a)
			}
		}
		if leave < 0 {
			if math.IsInf(tMax, 1) {
				return Unbounded
			}
			// Bound flip: the entering variable traverses to its other
			// bound without a basis change.
			t := tMax
			for i := 0; i < s.m; i++ {
				if s.alpha[i] != 0 {
					s.xB[i] -= sigma * t * s.alpha[i]
				}
			}
			if s.status[enter] == AtLower {
				s.status[enter] = AtUpper
			} else {
				s.status[enter] = AtLower
			}
			s.iters++
			if math.Abs(dEnter)*t > degenStep {
				stall, bland = 0, false
			}
			continue
		}
		t := bestT
		for i := 0; i < s.m; i++ {
			if s.alpha[i] != 0 {
				s.xB[i] -= sigma * t * s.alpha[i]
			}
		}
		enterVal := s.nbVal(enter) + sigma*t
		s.pivot(leave, enter, enterVal, leaveSt)
		if math.Abs(dEnter)*t > degenStep {
			stall, bland = 0, false
		} else {
			stall++
			if stall > limit {
				bland = true
			}
		}
	}
}

// phase1 drives the basis to primal feasibility by minimizing the total
// bound violation of the basic variables. The piecewise-linear cost is
// priced through its gradient (-1 below the lower bound, +1 above the
// upper), recomputed every iteration; basics that are currently
// infeasible block the ratio test only at the bound they are violating,
// so one pivot can repair several violations at once.
func (s *spx) phase1() Status {
	bland := false
	stall := 0
	limit := stallLimit(s.m)
	w := s.grad
	for {
		if s.iters >= s.maxIters || s.p.stopRequested() {
			return IterationLimit
		}
		if s.lu.numEtas() >= refactorEvery {
			s.factorizeNow()
		}
		infeas := 0.0
		for i := 0; i < s.m; i++ {
			v := s.heading[i]
			switch {
			case s.xB[i] < s.lo[v]-feasTol:
				w[i] = -1
				infeas += s.lo[v] - s.xB[i]
			case s.xB[i] > s.up[v]+feasTol:
				w[i] = 1
				infeas += s.xB[i] - s.up[v]
			default:
				w[i] = 0
			}
		}
		if infeas == 0 {
			return Optimal
		}
		copy(s.y, w)
		s.lu.btran(s.y)
		enter := -1
		var sigma, dEnter float64
		best := dualTol
		for j := 0; j < s.tot; j++ {
			st := s.status[j]
			if st == Basic || s.lo[j] == s.up[j] {
				continue
			}
			d := -s.colDot(j, s.y)
			var score, sg float64
			switch st {
			case AtLower:
				if d < -dualTol {
					score, sg = -d, 1
				}
			case AtUpper:
				if d > dualTol {
					score, sg = d, -1
				}
			default:
				if d < -dualTol {
					score, sg = -d, 1
				} else if d > dualTol {
					score, sg = d, -1
				}
			}
			if score == 0 {
				continue
			}
			if bland {
				enter, sigma, dEnter = j, sg, d
				break
			}
			if score > best {
				best, enter, sigma, dEnter = score, j, sg, d
			}
		}
		if enter < 0 {
			return Infeasible
		}
		s.loadAlpha(enter)

		tMax := s.up[enter] - s.lo[enter]
		leave := -1
		bestT := tMax
		var leaveSt VarStatus
		var bestA float64
		for i := 0; i < s.m; i++ {
			a := s.alpha[i]
			if a < ratioTol && a > -ratioTol {
				continue
			}
			delta := -sigma * a
			v := s.heading[i]
			var room float64
			var st VarStatus
			switch {
			case s.xB[i] < s.lo[v]-feasTol:
				// Infeasible below: blocks only while rising to lo.
				if delta <= 0 {
					continue
				}
				room = s.lo[v] - s.xB[i]
				st = AtLower
			case s.xB[i] > s.up[v]+feasTol:
				if delta >= 0 {
					continue
				}
				room = s.xB[i] - s.up[v]
				st = AtUpper
			default:
				if delta > 0 {
					if math.IsInf(s.up[v], 1) {
						continue
					}
					room = s.up[v] - s.xB[i]
					st = AtUpper
				} else {
					if math.IsInf(s.lo[v], -1) {
						continue
					}
					room = s.xB[i] - s.lo[v]
					st = AtLower
				}
			}
			if room < 0 {
				room = 0
			}
			ratio := room / math.Abs(a)
			take := false
			if ratio < bestT-degenStep {
				take = true
			} else if leave >= 0 && ratio <= bestT+degenStep {
				aa := math.Abs(a)
				if bland {
					take = v < s.heading[leave]
				} else if aa > bestA+degenStep {
					take = true
				} else if aa >= bestA-degenStep && v < s.heading[leave] {
					take = true
				}
			}
			if take {
				leave, bestT, leaveSt, bestA = i, ratio, st, math.Abs(a)
			}
		}
		if leave < 0 {
			if math.IsInf(tMax, 1) {
				// Mathematically impossible (the violation sum is bounded
				// below by 0); reachable only through numerical trouble.
				return Infeasible
			}
			t := tMax
			for i := 0; i < s.m; i++ {
				if s.alpha[i] != 0 {
					s.xB[i] -= sigma * t * s.alpha[i]
				}
			}
			if s.status[enter] == AtLower {
				s.status[enter] = AtUpper
			} else {
				s.status[enter] = AtLower
			}
			s.iters++
			if math.Abs(dEnter)*t > degenStep {
				stall, bland = 0, false
			}
			continue
		}
		t := bestT
		for i := 0; i < s.m; i++ {
			if s.alpha[i] != 0 {
				s.xB[i] -= sigma * t * s.alpha[i]
			}
		}
		enterVal := s.nbVal(enter) + sigma*t
		s.pivot(leave, enter, enterVal, leaveSt)
		if math.Abs(dEnter)*t > degenStep {
			stall, bland = 0, false
		} else {
			stall++
			if stall > limit {
				bland = true
			}
		}
	}
}

// dual runs the dual simplex from a dual-feasible basis — the warm-start
// workhorse: a branch-and-bound child tightens one bound, which leaves the
// parent's basis dual-feasible but primal-infeasible, and a handful of
// dual pivots restore feasibility. Returns done=false when numerics force
// the caller to fall back to phase1+primal.
func (s *spx) dual() (Status, bool) {
	bland := false
	stall := 0
	limit := stallLimit(s.m)
	badPivots := 0
	for {
		if s.iters >= s.maxIters || s.p.stopRequested() {
			return IterationLimit, true
		}
		if s.lu.numEtas() >= refactorEvery {
			s.factorizeNow()
		}
		// Leaving row: largest bound violation (Bland: smallest basic
		// variable among the violated), smallest row index on ties.
		r := -1
		worst := feasTol
		for i := 0; i < s.m; i++ {
			v := s.heading[i]
			viol := 0.0
			if s.xB[i] < s.lo[v]-feasTol {
				viol = s.lo[v] - s.xB[i]
			} else if s.xB[i] > s.up[v]+feasTol {
				viol = s.xB[i] - s.up[v]
			}
			if viol <= feasTol {
				continue
			}
			if bland {
				if r < 0 || v < s.heading[r] {
					r = i
				}
			} else if viol > worst {
				worst, r = viol, i
			}
		}
		if r < 0 {
			return Optimal, true
		}
		leaveVar := s.heading[r]
		toLower := s.xB[r] < s.lo[leaveVar]
		for i := range s.rho {
			s.rho[i] = 0
		}
		// btran expects position-indexed input; e_r is the unit vector at
		// basis position r.
		s.rho[r] = 1
		s.lu.btran(s.rho)
		s.btranCost()

		// Entering column: the dual ratio test over nonbasic candidates
		// whose row entry has the sign that keeps dual feasibility.
		enter := -1
		bestRatio := math.Inf(1)
		var bestA float64
		for j := 0; j < s.tot; j++ {
			st := s.status[j]
			if st == Basic || s.lo[j] == s.up[j] {
				continue
			}
			aj := s.colDot(j, s.rho)
			if aj < ratioTol && aj > -ratioTol {
				continue
			}
			ok := false
			if toLower {
				ok = (st == AtLower && aj < 0) || (st == AtUpper && aj > 0) || st == NonbasicFree
			} else {
				ok = (st == AtLower && aj > 0) || (st == AtUpper && aj < 0) || st == NonbasicFree
			}
			if !ok {
				continue
			}
			d := s.cost[j] - s.colDot(j, s.y)
			ratio := math.Abs(d) / math.Abs(aj)
			if bland {
				if enter < 0 || j < enter {
					enter, bestA = j, math.Abs(aj)
				}
				continue
			}
			take := false
			if ratio < bestRatio-degenStep {
				take = true
			} else if enter >= 0 && ratio <= bestRatio+degenStep {
				aa := math.Abs(aj)
				if aa > bestA+degenStep || (aa >= bestA-degenStep && j < enter) {
					take = true
				}
			}
			if take {
				enter, bestRatio, bestA = j, ratio, math.Abs(aj)
			}
		}
		if enter < 0 {
			// No column can absorb the violation: the primal is infeasible.
			return Infeasible, true
		}
		s.loadAlpha(enter)
		arq := s.alpha[r]
		if math.Abs(arq) < dualPivTol {
			// The agreed pivot is numerically unusable; refactorize and
			// retry, bail to the primal path if it keeps happening.
			badPivots++
			if badPivots > 3 {
				return Optimal, false
			}
			s.factorizeNow()
			continue
		}
		var beta float64
		var leaveSt VarStatus
		if toLower {
			beta, leaveSt = s.lo[leaveVar], AtLower
		} else {
			beta, leaveSt = s.up[leaveVar], AtUpper
		}
		dxq := (s.xB[r] - beta) / arq
		for i := 0; i < s.m; i++ {
			if s.alpha[i] != 0 {
				s.xB[i] -= dxq * s.alpha[i]
			}
		}
		enterVal := s.nbVal(enter) + dxq
		s.pivot(r, enter, enterVal, leaveSt)
		if worst > degenStep && math.Abs(dxq) > degenStep {
			stall, bland = 0, false
		} else {
			stall++
			if stall > limit {
				bland = true
			}
		}
	}
}

// solveSparse runs the revised simplex on p, warm-starting from warm when
// provided. It returns the result and the final basis (nil unless the
// solve reached Optimal).
func solveSparse(p *Problem, warm *Basis) (*Result, *Basis) {
	for j := 0; j < p.numVars; j++ {
		if p.lower[j] > p.upper[j]+eps {
			return &Result{Status: Infeasible}, nil
		}
	}
	if p.ws == nil {
		p.ws = newSpx(p)
	}
	s := p.ws
	s.load()
	s.adoptBasis(warm)
	s.factorizeNow()

	var st Status
	switch {
	case s.primalFeasible():
		st = s.primal()
	case warm != nil && s.dualFeasible():
		var done bool
		st, done = s.dual()
		if done && st == Optimal {
			// The dual loop ends primal-feasible; a primal cleanup pass
			// (usually zero pivots) certifies optimality and catches any
			// dual-tolerance slack.
			st = s.primal()
		} else if !done {
			if st = s.phase1(); st == Optimal {
				st = s.primal()
			}
		}
	default:
		if st = s.phase1(); st == Optimal {
			st = s.primal()
		}
	}

	res := &Result{Status: st, Iters: s.iters}
	if st != Optimal {
		return res, nil
	}
	x := make([]float64, s.n)
	for j := 0; j < s.n; j++ {
		if s.status[j] != Basic {
			x[j] = s.nbVal(j)
		}
	}
	for i := 0; i < s.m; i++ {
		if v := s.heading[i]; v < s.n {
			x[v] = s.xB[i]
		}
	}
	// Clamp tiny tolerance-level bound violations away so downstream
	// consumers (rounding, branching) see hard-feasible coordinates.
	for j := 0; j < s.n; j++ {
		if x[j] < p.lower[j] {
			x[j] = p.lower[j]
		}
		if x[j] > p.upper[j] {
			x[j] = p.upper[j]
		}
	}
	obj := 0.0
	for j := 0; j < s.n; j++ {
		obj += p.obj[j] * x[j]
	}
	res.Objective = obj
	res.X = x
	basis := &Basis{Status: append([]VarStatus(nil), s.status...)}
	return res, basis
}
