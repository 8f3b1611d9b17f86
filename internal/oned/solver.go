package oned

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"eblow/internal/core"
	"eblow/internal/knapsack"
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
	// readers (assign, unassign, post-swap) index a flat slice instead of
	// copying a Character per read.
	red []int64
	// redSum[i] is the sum of character i's row of red, so post-swap reads
	// a move's new total writing time in O(1).
	redSum []int64
	// times holds the per-region writing times of the current selection,
	// equal to in.RegionTimes(s.selection()) at every stage boundary:
	// assign takes the character's row of red off it and unassign puts it
	// back. Integer sums are exact, so the order of updates never matters.
	times []int64

	width  []int // bounding-box widths
	sblank []int // symmetric blanks s_i
	effW   []int // w_i - s_i

	assigned []int  // row index per character, -1 when not on the stencil
	solved   []bool // successive-rounding bookkeeping
	// profits is the buffer every currentProfits call of the solve writes
	// into; regionW holds that call's times[r]/tmax per region.
	profits []float64
	regionW []float64

	rows []rowState
	// dp[c] is worker c's row-DP scratch in refineAllRows.
	dp []rowDP

	// rowGroup[j] is the row group owning row j (-1 = open row); nil when
	// the instance has no row groups. charGroups[i] is the bitmask of groups
	// whose regions character i repeats in.
	rowGroup   []int
	charGroups []uint64

	// Successive-rounding buffers, sized by the first iteration and reused
	// by every later one of the same solve: the unsolved characters, the
	// row capacities, the rounding entries and the queue that hands them
	// out in rank order.
	unsolved []int
	caps     []float64
	entries  []roundingEntry
	queue    roundingQueue

	// relax is the most recent LP relaxation (used by fast convergence and
	// the Fig. 6 trace) as a flat len(unsolved) x m matrix: relax[k*m+j] is
	// the fraction of the k-th unsolved character on row j. The unsolved
	// set only shrinks, so the first iteration sizes it for good.
	// relaxAt[i] is character i's k in it, valid for every character still
	// unsolved (each of them was unsolved then too); hasRelax reports
	// whether the latest relaxation was solved.
	relax    []float64
	relaxAt  []int
	hasRelax bool

	// Relaxation block scratch: allRows lists every row, iota[k] = k
	// indexes unsolved characters, oneBlock holds the single block of a
	// solve without row groups, and work[b] is block b's workspace.
	allRows, iota []int
	oneBlock      [1]relaxBlock
	work          []blockWork

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
	// last relaxation, R table) alive for as long as a caller
	// holds the trace.
	trace := s.trace
	return sol, &trace, nil
}

// newSolver builds the working state for one run.
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
	s.initRowGroups()
	s.width = make([]int, s.n)
	s.sblank = make([]int, s.n)
	s.effW = make([]int, s.n)
	s.assigned = make([]int, s.n)
	s.solved = make([]bool, s.n)
	s.rows = make([]rowState, s.m)
	s.relaxAt = make([]int, s.n)
	s.red = make([]int64, s.n*s.nr)
	s.redSum = make([]int64, s.n)
	s.regionW = make([]float64, s.nr)
	s.times = in.VSBTime()
	for i := range in.Characters {
		c := &in.Characters[i]
		for r := range s.nr {
			s.red[i*s.nr+r] = in.Reduction(i, r)
			s.redSum[i] += s.red[i*s.nr+r]
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

// reds returns character i's row of the R table: its writing-time
// reduction in every region.
func (s *solver) reds(i int) []int64 {
	return s.red[i*s.nr : (i+1)*s.nr]
}

// currentProfits evaluates the dynamic Eqn. (6) profit of every character
// for the current selection into the solver's profits buffer and returns
// it; the next call overwrites it.
func (s *solver) currentProfits() []float64 {
	return s.profitsOf(nil)
}

// profitsOf is currentProfits for the characters in ids only, or for every
// character when ids is nil; the buffer's other entries are left stale.
// Each region's weight times[r]/tmax is divided once per call. The
// per-character profit sums are independent, so they are computed on the
// worker pool with each worker writing only its own indices —
// bit-identical to the sequential core.Instance.Profits for any worker
// count.
func (s *solver) profitsOf(ids []int) []float64 {
	times := s.times
	tmax := core.MaxInt64(times)
	s.profits = slices.Grow(s.profits[:0], s.n)[:s.n]
	profits := s.profits
	if tmax <= 0 {
		clear(profits)
		return profits
	}
	weights := s.regionW
	for r, t := range times {
		weights[r] = float64(t) / float64(tmax)
	}
	n := s.n
	if ids != nil {
		n = len(ids)
	}
	par.For(s.opt.workerCount(), n, func(k int) {
		i := k
		if ids != nil {
			i = ids[k]
		}
		var p float64
		c := &s.in.Characters[i]
		for r, rep := range c.Repeats {
			p += weights[r] * float64(c.VSBShots-1) * float64(rep)
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

// assign puts character i on row j and takes its reductions off the region
// times.
func (s *solver) assign(i, j int) {
	r := &s.rows[j]
	r.chars = append(r.chars, i)
	r.usedEff += s.effW[i]
	if s.sblank[i] > r.maxBlank {
		r.maxBlank = s.sblank[i]
	}
	s.assigned[i] = j
	s.solved[i] = true
	for c, red := range s.reds(i) {
		s.times[c] -= red
	}
}

// unassign removes character i from its row (used by post-swap) and puts
// its reductions back on the region times.
func (s *solver) unassign(i int) {
	if s.assigned[i] < 0 {
		return
	}
	s.leaveRow(i)
	s.restoreTimes(i)
}

// restoreTimes puts the reductions of character i, just taken off the
// stencil, back on the region times.
func (s *solver) restoreTimes(i int) {
	for c, red := range s.reds(i) {
		s.times[c] += red
	}
}

// leaveRow takes the assigned character i off its row without touching the
// region times. It only writes row assigned[i]'s state and assigned[i]
// itself, so the rows' refinement can evict characters concurrently.
func (s *solver) leaveRow(i int) {
	j := s.assigned[i]
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

// unsolvedIDs returns the characters that still need a rounding decision,
// written into dst's backing array (nil allocates).
func (s *solver) unsolvedIDs(dst []int) []int {
	ids := dst[:0]
	for i := 0; i < s.n; i++ {
		if !s.solved[i] {
			ids = append(ids, i)
		}
	}
	return ids
}

// countUnsolved returns len(s.unsolvedIDs(nil)) without building the list.
func (s *solver) countUnsolved() int {
	c := 0
	for _, done := range s.solved {
		if !done {
			c++
		}
	}
	return c
}

// rowCapacities returns the remaining symmetric-blank capacity of every row
// for the LP relaxation, in the solver's reused capacity buffer. Empty rows
// reserve space for the largest blank among the unsolved characters (the
// W - maxs bound of formulation (5)).
func (s *solver) rowCapacities() []float64 {
	maxBlankUnsolved := 0
	for i, done := range s.solved {
		if !done && s.sblank[i] > maxBlankUnsolved {
			maxBlankUnsolved = s.sblank[i]
		}
	}
	if s.caps == nil {
		s.caps = make([]float64, s.m)
	}
	caps := s.caps
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
// indexed like `unsolved`, flat and row-major in the solver's relaxation
// buffer (the next call overwrites it). The relaxation is split into its
// independent candidacy blocks (one block covering everything when no row
// groups are configured) and the blocks are solved concurrently on the
// worker pool; the relaxation wall-clock is accumulated into the trace.
func (s *solver) solveRelaxation(unsolved []int, caps []float64) ([]float64, error) {
	start := time.Now()
	a, err := s.solveRelaxationBlocks(unsolved, caps, s.relaxBlocks(unsolved))
	s.trace.RelaxElapsed += time.Since(start)
	return a, err
}

// successiveRounding is Algorithm 1 of the paper: solve the relaxation,
// round the variables close to the iteration maximum, update profits and
// repeat until the stencil is full or assignments stall.
func (s *solver) successiveRounding() {
	for iter := 0; iter < maxIterations; iter++ {
		if s.ctx.Err() != nil {
			return
		}
		s.unsolved = s.unsolvedIDs(s.unsolved)
		unsolved := s.unsolved
		if len(unsolved) == 0 {
			return
		}
		// The iteration reads the profits of unsolved characters only.
		s.profitsOf(unsolved)
		a, err := s.solveRelaxation(unsolved, s.rowCapacities())
		// A failed solve may have overwritten part of the buffer, so the
		// previous relaxation is gone too.
		s.hasRelax = err == nil
		if err != nil {
			return
		}
		for k, i := range unsolved {
			s.relaxAt[i] = k
		}

		// A first-fit split has at most one positive entry per character
		// plus one per row boundary, so this capacity is rarely exceeded.
		apq := 0.0
		entries := slices.Grow(s.entries[:0], len(unsolved)+s.m)
		for k, i := range unsolved {
			density := s.profits[i]
			if s.effW[i] > 0 {
				density /= float64(s.effW[i])
			}
			for j, v := range a[k*s.m : (k+1)*s.m] {
				if v > apq {
					apq = v
				}
				if v > 1e-9 {
					entries = append(entries, roundingEntry{char: i, row: j, value: v, density: density})
				}
			}
		}
		s.entries = entries
		if apq <= 1e-9 {
			s.recordIteration(0)
			return
		}
		threshold := apq * thinv

		// The structured relaxation returns nearly integral solutions, so
		// without a cap the whole stencil would be filled in one iteration
		// and the dynamic profit update of Eqn. (6) would never get a chance
		// to rebalance the MCC regions. The loop reads past the first
		// capAssign entries only when it skips one as solved or unfit,
		// which no iteration of the plan1d pools or the 1D, 1M and 1T
		// families does, so the queue ranks that many up front.
		capAssign := max(25, s.n/12)
		assignedThisIter := 0
		s.queue.reset(entries, capAssign)
		for assignedThisIter < capAssign {
			e, ok := s.queue.next()
			if !ok || e.value < threshold {
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
	t := int(math.Ceil(convergenceFraction * float64(s.n)))
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
	s.trace.UnsolvedPerIteration = append(s.trace.UnsolvedPerIteration, s.countUnsolved())
}

// fastConvergence keeps only the Uth pass of Algorithm 2: every variable
// above Uth in the last relaxation is rounded up. The paper hands the
// variables between its lower threshold and Uth to an ILP; this planner
// leaves them, like everything still unassigned, to convergeTail (see the
// package doc).
func (s *solver) fastConvergence() {
	s.unsolved = s.unsolvedIDs(s.unsolved)
	unsolved := s.unsolved
	if len(unsolved) == 0 || !s.hasRelax {
		return
	}
	s.trace.UsedFastConvergence = true

	if s.opt.CollectTrace {
		for _, i := range unsolved {
			best := 0.0
			for _, v := range s.lastRelax(i) {
				if v > best {
					best = v
				}
			}
			s.trace.LastLPValues = append(s.trace.LastLPValues, best)
		}
	}

	for _, i := range unsolved {
		for j, v := range s.lastRelax(i) {
			if v > uth && !s.solved[i] && s.fits(i, j) {
				s.assign(i, j)
			}
		}
	}
}

// convergeTail decides the remaining unassigned characters with an exact
// 0/1 knapsack over the aggregate remaining capacity and assigns the chosen
// ones first-fit. It takes the place of the paper's ILP over the residual
// formulation (4) (see the package doc): the LP relaxation excludes characters
// purely by profit density, which can strand wide characters with a large
// absolute writing-time reduction; the exact knapsack re-evaluates that
// trade-off by total profit before the stencil capacity is gone.
func (s *solver) convergeTail() {
	s.currentProfits()
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
	slices.SortFunc(picked, func(a, b int) int { return compareProfit(s.profits, a, b) })
	for _, i := range picked {
		for j := 0; j < s.m; j++ {
			if s.fits(i, j) {
				s.assign(i, j)
				break
			}
		}
	}
}

// compareProfit ranks characters by profit descending, then by id: the
// order convergeTail assigns its picks in and post-insertion tries its
// candidates in.
func compareProfit(profits []float64, a, b int) int {
	return cmp.Or(descending(profits[a], profits[b]), cmp.Compare(a, b))
}

// lastRelax returns character i's row fractions in the most recent
// relaxation; i must be unsolved and s.hasRelax set.
func (s *solver) lastRelax(i int) []float64 {
	k := s.relaxAt[i]
	return s.relax[k*s.m : (k+1)*s.m]
}

// roundingEntry is one positive relaxation value a_ij, a successive-rounding
// candidate, with its character's profit density.
type roundingEntry struct {
	char, row      int
	value, density float64
}

// compareRounding ranks rounding entries by fractional value, then by the
// character's profit density, both descending, then by character and row
// ascending. Density keeps the realised selection close to the
// fractional-knapsack optimum of the relaxation; ranking ties by absolute
// profit instead measurably erodes the total reduction. One iteration has
// at most one entry per (character, row), so the order is strict: any sort
// or selection gives the same ranking.
func compareRounding(x, y roundingEntry) int {
	if c := descending(x.value, y.value); c != 0 {
		return c
	}
	if c := descending(x.density, y.density); c != 0 {
		return c
	}
	if x.char != y.char {
		return cmp.Compare(x.char, y.char)
	}
	return cmp.Compare(x.row, y.row)
}

// roundingQueue hands out rounding entries in compareRounding order
// while sorting only what the rounding loop reads: reset quick-selects the
// k highest-ranked entries to the front and sorts just those, and the rest
// is sorted only once the loop reads past them.
type roundingQueue struct {
	all    []roundingEntry // all[:sorted] is in rank order and ranks above all[sorted:]
	sorted int
	pos    int
}

// reset starts the queue over entries, ranking their k highest-ranked
// entries up front. k > 0.
func (q *roundingQueue) reset(entries []roundingEntry, k int) {
	q.all, q.pos, q.sorted = entries, 0, min(k, len(entries))
	if q.sorted < len(entries) {
		selectRoundingTop(entries, q.sorted)
	}
	slices.SortFunc(entries[:q.sorted], compareRounding)
}

// next returns the next entry in rank order; ok is false once every entry
// has been handed out.
func (q *roundingQueue) next() (e roundingEntry, ok bool) {
	if q.pos == q.sorted && q.sorted < len(q.all) {
		slices.SortFunc(q.all[q.sorted:], compareRounding)
		q.sorted = len(q.all)
	}
	if q.pos == len(q.all) {
		return roundingEntry{}, false
	}
	e = q.all[q.pos]
	q.pos++
	return e, true
}

// selectRoundingTop reorders es so that es[:k] holds its k highest-ranked
// entries (Hoare quickselect under compareRounding, median-of-three
// pivot). 0 < k < len(es).
func selectRoundingTop(es []roundingEntry, k int) {
	lo, hi, t := 0, len(es)-1, k-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		a, b, c := es[lo], es[mid], es[hi]
		if compareRounding(b, a) < 0 {
			a, b = b, a
		}
		if compareRounding(c, b) < 0 {
			b = c
			if compareRounding(b, a) < 0 {
				b = a
			}
		}
		p := b
		i, j := lo, hi
		for i <= j {
			for compareRounding(es[i], p) < 0 {
				i++
			}
			for compareRounding(p, es[j]) < 0 {
				j--
			}
			if i <= j {
				es[i], es[j] = es[j], es[i]
				i++
				j--
			}
		}
		switch {
		case t <= j:
			hi = j
		case t >= i:
			lo = i
		default:
			return
		}
	}
}

// descending orders float keys from high to low for slices.SortFunc, NaN
// last: a total order, so two keys compare equal only when they are equal
// or both NaN.
func descending(x, y float64) int {
	return cmp.Compare(y, x)
}
