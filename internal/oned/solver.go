package oned

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"eblow/internal/core"
	"eblow/internal/ilp"
	"eblow/internal/knapsack"
	"eblow/internal/lp"
	"eblow/internal/par"
)

// solver holds the working state of one E-BLOW 1D run.
type solver struct {
	ctx context.Context
	in  *core.Instance
	opt Options

	n, m, w int // characters, rows, stencil width
	nr      int // MCC regions

	// red is the paper's R_ic as a dense characters x regions table,
	// red[i*nr+c] = in.Reduction(i, c), built once per solve so the hot
	// readers (regionTimes, post-swap) index a flat slice instead of
	// copying a Character per read.
	red []int64

	width  []int // bounding-box widths
	sblank []int // symmetric blanks s_i
	effW   []int // w_i - s_i

	assigned []int  // row index per character, -1 when not on the stencil
	solved   []bool // successive-rounding bookkeeping
	profits  []float64

	rows []rowState

	// rowGroup[j] is the row group owning row j (-1 = open row); nil when
	// Options.RowGroups is unset. charGroups[i] is the bitmask of groups
	// whose regions character i repeats in.
	rowGroup   []int
	charGroups []uint64

	// lastRelax maps character id -> per-row fractions from the most recent
	// LP relaxation (used by fast convergence and the Fig. 6 trace).
	lastRelax map[int][]float64

	// relaxWarm caches the previous relaxation's optimal bases by variable
	// and constraint identity (SimplexLP backend only). Each rounding
	// iteration's re-solves warm-start from it, and fast convergence seeds
	// its branch-and-bound root from it. Frozen once built: the next
	// iteration's blocks read it concurrently, lookups only.
	relaxWarm *relaxWarm

	trace Trace
}

// rowState tracks one stencil row during assignment (before refinement).
type rowState struct {
	chars    []int
	usedEff  int // sum of (w_i - s_i) over assigned characters
	maxBlank int // max s_i over assigned characters
	order    []int
	width    int
}

// Solve runs the full E-BLOW 1D flow on the instance and returns the stencil
// plan plus the iteration trace. The context cancels the run between stages
// and between rounding iterations: an already-done context returns ctx.Err()
// before any work happens, and a context that expires mid-run stops the
// planner at the next checkpoint with ctx.Err(). The flow is deterministic
// for a given instance and options regardless of opt.Workers.
func Solve(ctx context.Context, in *core.Instance, opt Options) (*core.Solution, *Trace, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if err := in.Validate(); err != nil {
		return nil, nil, err
	}
	if in.Kind != core.OneD {
		return nil, nil, fmt.Errorf("oned: instance %q is not a 1DOSP instance", in.Name)
	}
	opt = opt.withDefaults()
	if len(opt.RowGroups) == 0 {
		// An instance generated in per-column-cell-band mode carries its
		// banding with it; explicit options still override.
		opt.RowGroups = in.RowGroups
	}

	s, err := newSolver(ctx, in, opt)
	if err != nil {
		return nil, nil, err
	}

	s.successiveRounding()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if opt.EnableFastConvergence {
		s.fastConvergence()
		s.convergeTail()
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	s.refineAllRows()
	if opt.EnablePostSwap {
		s.postSwap()
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if opt.EnablePostInsertion {
		s.postInsert()
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	sol := s.buildSolution()
	name := "E-BLOW-1"
	if !opt.EnableFastConvergence && !opt.EnablePostInsertion {
		name = "E-BLOW-0"
	}
	sol.Finalize(in, name, time.Since(start))
	// Return a copy: a pointer into s would keep the whole solver (rows,
	// last relaxation, warm bases, R table) alive for as long as a caller
	// holds the trace.
	trace := s.trace
	return sol, &trace, nil
}

// newSolver builds the working state for one run; opt must already have its
// defaults filled in.
func newSolver(ctx context.Context, in *core.Instance, opt Options) (*solver, error) {
	s := &solver{
		ctx: ctx,
		in:  in,
		opt: opt,
		n:   in.NumCharacters(),
		m:   in.NumRows(),
		w:   in.StencilWidth,
		nr:  in.NumRegions,
	}
	if s.m == 0 {
		return nil, fmt.Errorf("oned: stencil of %q has no rows", in.Name)
	}
	if err := s.initRowGroups(); err != nil {
		return nil, err
	}
	s.width = make([]int, s.n)
	s.sblank = make([]int, s.n)
	s.effW = make([]int, s.n)
	s.assigned = make([]int, s.n)
	s.solved = make([]bool, s.n)
	s.rows = make([]rowState, s.m)
	s.red = make([]int64, s.n*s.nr)
	for i := range in.Characters {
		c := &in.Characters[i]
		for r := range s.nr {
			s.red[i*s.nr+r] = in.Reduction(i, r)
		}
		s.width[i] = c.Width
		s.sblank[i] = c.SymmetricHBlank()
		s.effW[i] = c.Width - s.sblank[i]
		s.assigned[i] = -1
		if c.Width > s.w {
			// Can never fit on a row; treat as solved (never selected).
			s.solved[i] = true
		}
	}
	return s, nil
}

// selection returns the current selection vector (characters assigned to a
// row).
func (s *solver) selection() []bool {
	sel := make([]bool, s.n)
	for i, r := range s.assigned {
		sel[i] = r >= 0
	}
	return sel
}

// regionTimes returns the current per-region writing times. Regions are
// evaluated on the worker pool; each worker owns whole regions, so the
// result matches the sequential core.Instance.RegionTimes exactly.
func (s *solver) regionTimes() []int64 {
	t := s.in.VSBTime()
	par.For(s.opt.workerCount(), len(t), func(r int) {
		for i, j := range s.assigned {
			if j >= 0 {
				t[r] -= s.red[i*s.nr+r]
			}
		}
	})
	return t
}

// currentProfits evaluates the profit of every character for the current
// selection: the dynamic Eqn. (6) value by default, or the static total
// reduction when the StaticProfit ablation is enabled. The per-character
// profit sums are independent, so they are computed on the worker pool with
// each worker writing only its own indices — bit-identical to the
// sequential core.Instance.Profits for any worker count.
func (s *solver) currentProfits() []float64 {
	if s.opt.StaticProfit {
		return s.in.StaticProfits()
	}
	times := s.regionTimes()
	tmax := core.MaxInt64(times)
	profits := make([]float64, s.n)
	if tmax <= 0 {
		return profits
	}
	par.For(s.opt.workerCount(), s.n, func(i int) {
		var p float64
		for r, rep := range s.in.Characters[i].Repeats {
			w := float64(times[r]) / float64(tmax)
			p += w * float64(s.in.Characters[i].VSBShots-1) * float64(rep)
		}
		profits[i] = p
	})
	return profits
}

// fits reports whether character i can be added to row j under the
// symmetric-blank capacity model (Lemma 1 of the paper) and the row-group
// candidacy.
func (s *solver) fits(i, j int) bool {
	if !s.allowed(i, j) {
		return false
	}
	r := &s.rows[j]
	maxBlank := r.maxBlank
	if s.sblank[i] > maxBlank {
		maxBlank = s.sblank[i]
	}
	return r.usedEff+s.effW[i]+maxBlank <= s.w
}

// assign puts character i on row j.
func (s *solver) assign(i, j int) {
	r := &s.rows[j]
	r.chars = append(r.chars, i)
	r.usedEff += s.effW[i]
	if s.sblank[i] > r.maxBlank {
		r.maxBlank = s.sblank[i]
	}
	s.assigned[i] = j
	s.solved[i] = true
}

// unassign removes character i from its row (used by post-swap).
func (s *solver) unassign(i int) {
	j := s.assigned[i]
	if j < 0 {
		return
	}
	r := &s.rows[j]
	for k, id := range r.chars {
		if id == i {
			r.chars = append(r.chars[:k], r.chars[k+1:]...)
			break
		}
	}
	r.usedEff -= s.effW[i]
	r.maxBlank = 0
	for _, id := range r.chars {
		if s.sblank[id] > r.maxBlank {
			r.maxBlank = s.sblank[id]
		}
	}
	s.assigned[i] = -1
}

// unsolvedIDs returns the characters that still need a rounding decision.
func (s *solver) unsolvedIDs() []int {
	var ids []int
	for i := 0; i < s.n; i++ {
		if !s.solved[i] {
			ids = append(ids, i)
		}
	}
	return ids
}

// rowCapacities returns the remaining symmetric-blank capacity of every row
// for the LP relaxation. Empty rows reserve space for the largest blank
// among the unsolved characters (the W - maxs bound of formulation (5)).
func (s *solver) rowCapacities(unsolved []int) []float64 {
	maxBlankUnsolved := 0
	for _, i := range unsolved {
		if s.sblank[i] > maxBlankUnsolved {
			maxBlankUnsolved = s.sblank[i]
		}
	}
	caps := make([]float64, s.m)
	for j := range s.rows {
		r := &s.rows[j]
		reserve := r.maxBlank
		if len(r.chars) == 0 {
			reserve = maxBlankUnsolved
		}
		c := s.w - r.usedEff - reserve
		if c < 0 {
			c = 0
		}
		caps[j] = float64(c)
	}
	return caps
}

// solveRelaxation solves the LP relaxation of the simplified formulation for
// the unsolved characters and returns the fractional assignment matrix
// indexed like `unsolved`. The relaxation is split into its independent
// candidacy blocks (one block covering everything when no row groups are
// configured) and the blocks are solved concurrently on the worker pool;
// the relaxation wall-clock is accumulated into the trace.
func (s *solver) solveRelaxation(unsolved []int, caps []float64) ([][]float64, error) {
	start := time.Now()
	a, err := s.solveRelaxationBlocks(unsolved, caps, s.relaxBlocks(unsolved))
	s.trace.RelaxElapsed += time.Since(start)
	return a, err
}

// successiveRounding is Algorithm 1 of the paper: solve the relaxation,
// round the variables close to the iteration maximum, update profits and
// repeat until the stencil is full or assignments stall.
func (s *solver) successiveRounding() {
	type entry struct {
		char, row int
		value     float64
	}
	for iter := 0; iter < s.opt.MaxIterations; iter++ {
		if s.ctx.Err() != nil {
			return
		}
		unsolved := s.unsolvedIDs()
		if len(unsolved) == 0 {
			return
		}
		s.profits = s.currentProfits()
		caps := s.rowCapacities(unsolved)
		a, err := s.solveRelaxation(unsolved, caps)
		if err != nil {
			return
		}

		// Remember the latest relaxation for fast convergence / tracing.
		s.lastRelax = make(map[int][]float64, len(unsolved))
		for k, i := range unsolved {
			s.lastRelax[i] = a[k]
		}

		apq := 0.0
		var entries []entry
		for k, i := range unsolved {
			for j := 0; j < s.m; j++ {
				v := a[k][j]
				if v > apq {
					apq = v
				}
				if v > 1e-9 {
					entries = append(entries, entry{char: i, row: j, value: v})
				}
			}
		}
		if apq <= 1e-9 {
			s.recordIteration(0)
			return
		}
		threshold := apq * s.opt.Thinv
		// Round in the relaxation's own ranking: by fractional value, then by
		// profit density. Density keeps the realised selection close to the
		// fractional-knapsack optimum of the relaxation; ranking ties by
		// absolute profit instead measurably erodes the total reduction.
		density := func(i int) float64 {
			if s.effW[i] <= 0 {
				return s.profits[i]
			}
			return s.profits[i] / float64(s.effW[i])
		}
		sort.Slice(entries, func(x, y int) bool {
			if entries[x].value != entries[y].value {
				return entries[x].value > entries[y].value
			}
			return density(entries[x].char) > density(entries[y].char)
		})

		capAssign := s.opt.MaxAssignPerIteration
		if capAssign <= 0 {
			capAssign = s.n / 12
			if capAssign < 25 {
				capAssign = 25
			}
		}
		assignedThisIter := 0
		for _, e := range entries {
			if e.value < threshold || assignedThisIter >= capAssign {
				break
			}
			if s.solved[e.char] {
				continue
			}
			if s.fits(e.char, e.row) {
				s.assign(e.char, e.row)
				assignedThisIter++
				continue
			}
			// The designated row is full (typically because the relaxation
			// split this character across a row boundary); any other row
			// with room is just as good.
			for j := 0; j < s.m; j++ {
				if j != e.row && s.fits(e.char, j) {
					s.assign(e.char, j)
					assignedThisIter++
					break
				}
			}
		}
		s.recordIteration(assignedThisIter)

		if assignedThisIter == 0 {
			return
		}
		if s.opt.EnableFastConvergence && iter >= 1 &&
			assignedThisIter < s.convergenceTrigger() {
			return
		}
	}
}

func (s *solver) convergenceTrigger() int {
	t := int(math.Ceil(s.opt.ConvergenceFraction * float64(s.n)))
	if t < 2 {
		t = 2
	}
	return t
}

func (s *solver) recordIteration(assigned int) {
	if !s.opt.CollectTrace {
		return
	}
	s.trace.AssignedPerIteration = append(s.trace.AssignedPerIteration, assigned)
	s.trace.UnsolvedPerIteration = append(s.trace.UnsolvedPerIteration, len(s.unsolvedIDs()))
}

// fastConvergence is Algorithm 2: variables below Lth are fixed to zero,
// variables above Uth are rounded up, and the remaining ones are decided by
// a small ILP solved with branch and bound.
func (s *solver) fastConvergence() {
	unsolved := s.unsolvedIDs()
	if len(unsolved) == 0 || s.lastRelax == nil {
		return
	}
	s.trace.UsedFastConvergence = true
	s.profits = s.currentProfits()

	if s.opt.CollectTrace {
		for _, i := range unsolved {
			if vals, ok := s.lastRelax[i]; ok {
				best := 0.0
				for _, v := range vals {
					if v > best {
						best = v
					}
				}
				s.trace.LastLPValues = append(s.trace.LastLPValues, best)
			}
		}
	}

	type pair struct {
		char, row int
		value     float64
	}
	var undecided []pair
	for _, i := range unsolved {
		vals, ok := s.lastRelax[i]
		if !ok {
			continue
		}
		for j := 0; j < s.m; j++ {
			v := vals[j]
			switch {
			case v > s.opt.Uth:
				if !s.solved[i] && s.fits(i, j) {
					s.assign(i, j)
				}
			case v >= s.opt.Lth:
				undecided = append(undecided, pair{char: i, row: j, value: v})
			}
		}
	}
	// Characters whose every variable fell below Lth stay off the stencil;
	// nothing to do for them (they simply remain unassigned).

	// Drop pairs whose character got assigned by the Uth pass.
	kept := undecided[:0]
	for _, p := range undecided {
		if !s.solved[p.char] {
			kept = append(kept, p)
		}
	}
	undecided = kept
	if len(undecided) == 0 {
		return
	}
	if len(undecided) > s.opt.MaxILPVariables {
		sort.Slice(undecided, func(x, y int) bool { return undecided[x].value > undecided[y].value })
		undecided = undecided[:s.opt.MaxILPVariables]
	}
	s.trace.FastILPVariables = len(undecided)

	// Build the ILP over the undecided pairs.
	caps := s.rowCapacities(s.unsolvedIDs())
	prob := lp.NewProblem(len(undecided))
	obj := make([]float64, len(undecided))
	binaries := make([]int, len(undecided))
	for v, p := range undecided {
		obj[v] = s.profits[p.char]
		binaries[v] = v
	}
	prob.SetObjective(obj, true)
	// Row capacity constraints.
	rowTerms := make(map[int][]lp.Term)
	charTerms := make(map[int][]lp.Term)
	for v, p := range undecided {
		rowTerms[p.row] = append(rowTerms[p.row], lp.Term{Var: v, Coeff: float64(s.effW[p.char])})
		charTerms[p.char] = append(charTerms[p.char], lp.Term{Var: v, Coeff: 1})
	}
	// Constraint order shapes the simplex pivot sequence and the B&B
	// tree, so it must not come from map iteration: add rows and chars in
	// sorted key order to keep the fast-ILP plan bit-identical run to run.
	rows := make([]int, 0, len(rowTerms))
	for row := range rowTerms {
		rows = append(rows, row)
	}
	sort.Ints(rows)
	for _, row := range rows {
		prob.AddConstraint(rowTerms[row], lp.LE, caps[row])
	}
	chars := make([]int, 0, len(charTerms))
	for c := range charTerms {
		chars = append(chars, c)
	}
	sort.Ints(chars)
	for _, c := range chars {
		prob.AddConstraint(charTerms[c], lp.LE, 1)
	}
	// With the SimplexLP backend the fast ILP is a sub-problem of the last
	// relaxation (same (char,row) variables and the same constraint shapes,
	// restricted to the undecided pairs), so the cached relaxation basis
	// seeds the branch-and-bound root: statuses are looked up per identity,
	// with cold defaults for anything the cache does not know, and the lp
	// solver repairs the basic count on adoption.
	var rootBasis *lp.Basis
	if s.opt.Backend == SimplexLP && !s.opt.ColdLP && s.relaxWarm != nil {
		st := make([]lp.VarStatus, len(undecided)+len(rows)+len(chars))
		for v, p := range undecided {
			if w, ok := s.relaxWarm.vars[varKey{char: p.char, row: p.row}]; ok {
				st[v] = w
			} else {
				st[v] = lp.AtLower
			}
		}
		pos := len(undecided)
		for _, row := range rows {
			if w, ok := s.relaxWarm.rows[row]; ok {
				st[pos] = w
			} else {
				st[pos] = lp.Basic
			}
			pos++
		}
		for _, c := range chars {
			if w, ok := s.relaxWarm.chars[c]; ok {
				st[pos] = w
			} else {
				st[pos] = lp.Basic
			}
			pos++
		}
		rootBasis = &lp.Basis{Status: st}
	}
	// The ILP engine keeps its result worker-count independent, so handing
	// it the planner's worker budget preserves the deterministic-plan
	// contract while the fast-convergence step stops being single-threaded.
	res, err := ilp.Solve(s.ctx, ilp.NewBinaryProblem(prob, binaries), ilp.Options{
		Maximize:  true,
		TimeLimit: s.opt.ILPTimeLimit,
		Workers:   s.opt.workerCount(),
		RootBasis: rootBasis,
		ColdLP:    s.opt.ColdLP,
	})
	if err != nil || res.X == nil {
		return
	}
	s.trace.FastILPPivots = res.LPPivots
	// Apply the ILP decisions (highest value first so capacity conflicts are
	// resolved in favour of the more attractive pairs).
	type chosen struct {
		pair
	}
	var picks []chosen
	for v, p := range undecided {
		if res.X[v] > 0.5 {
			picks = append(picks, chosen{p})
		}
	}
	sort.Slice(picks, func(x, y int) bool { return picks[x].value > picks[y].value })
	for _, c := range picks {
		if !s.solved[c.char] && s.fits(c.char, c.row) {
			s.assign(c.char, c.row)
		}
	}
}

// convergeTail decides the remaining unassigned characters with an exact
// 0/1 knapsack over the aggregate remaining capacity and assigns the chosen
// ones first-fit. This is the structured counterpart of handing the whole
// residual formulation (4) to the ILP: the LP relaxation excludes characters
// purely by profit density, which can strand wide characters with a large
// absolute writing-time reduction; the exact knapsack re-evaluates that
// trade-off by total profit before the stencil capacity is gone.
func (s *solver) convergeTail() {
	s.profits = s.currentProfits()
	var ids []int
	for i := 0; i < s.n; i++ {
		if s.assigned[i] < 0 && s.width[i] <= s.w && s.profits[i] > 0 {
			ids = append(ids, i)
		}
	}
	if len(ids) == 0 {
		return
	}
	remaining := 0
	for j := range s.rows {
		r := &s.rows[j]
		c := s.w - r.usedEff - r.maxBlank
		if c > 0 {
			remaining += c
		}
	}
	if remaining <= 0 {
		return
	}
	weights := make([]int, len(ids))
	values := make([]float64, len(ids))
	for k, i := range ids {
		weights[k] = s.effW[i]
		values[k] = s.profits[i]
	}
	_, chosen := knapsack.ExactBinary(weights, values, remaining)
	// Assign the chosen characters first-fit, most profitable first.
	var picked []int
	for k, ok := range chosen {
		if ok {
			picked = append(picked, ids[k])
		}
	}
	sort.Slice(picked, func(a, b int) bool { return s.profits[picked[a]] > s.profits[picked[b]] })
	for _, i := range picked {
		for j := 0; j < s.m; j++ {
			if s.fits(i, j) {
				s.assign(i, j)
				break
			}
		}
	}
}
