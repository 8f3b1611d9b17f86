// Package floorsa implements fixed-outline floorplanning of OSP blocks with
// simulated annealing over the sequence-pair representation. A block is
// either a single character (the prior-work flow of the paper, used as the
// 2D baseline) or a cluster of characters (the E-BLOW flow, which runs the
// same engine on the clustered instance). The cost of a floorplan is the MCC
// writing time computed from the blocks that land inside the stencil
// outline, so selection and placement are optimized together exactly as in
// the fixed-outline formulation of the prior work.
//
// Pack is cancellable through its context and supports multi-start
// annealing: Restarts independent seeded runs execute on a worker pool and
// the best legalised floorplan wins. The winner is picked by scanning the
// restarts in index order, so the result is identical for a fixed seed no
// matter how many workers ran them.
package floorsa

import (
	"context"
	"math/rand"
	"sort"
	"time"

	"eblow/internal/anneal"
	"eblow/internal/core"
	"eblow/internal/pack2d"
	"eblow/internal/seqpair"
)

// Block is one unit to place: geometry with blanks plus the per-region
// writing-time reduction obtained when the block is on the stencil.
type Block struct {
	pack2d.Block
	Reductions []int64
}

// Options configures the annealing run.
type Options struct {
	// MoveBudget is the total number of proposed moves per restart. If zero
	// a budget of 40*n (bounded to [2000, 60000]) is used.
	MoveBudget int
	// Seed seeds the annealer and the initial sequence pair.
	Seed int64
	// TimeLimit bounds the wall-clock time of the whole annealing run,
	// across all restarts (restarts cut off mid-schedule still contribute
	// their best-so-far floorplans).
	TimeLimit time.Duration
	// Restarts is the number of independent annealing restarts (best-of
	// wins); 0 or 1 means a single run. Restart 0 starts from the shelf
	// floorplan, later restarts from seeded random sequence pairs.
	Restarts int
	// Workers bounds how many restarts anneal concurrently; <= 0 means one
	// goroutine per restart.
	Workers int
	// SumObjective switches the annealing cost from the MCC objective
	// (maximum region writing time) to the total writing time over all
	// regions. The prior-work baseline of the paper uses the sum; E-BLOW
	// uses the maximum.
	SumObjective bool
	// RandomInitial starts the annealer from a random sequence pair instead
	// of the default shelf-packed initial floorplan built from the block
	// order (most profitable blocks first).
	RandomInitial bool
	// SkipAnneal evaluates only the shelf initial floorplan (no annealing).
	// Used by the planner as a fast fallback evaluation.
	SkipAnneal bool
}

// Result is the outcome of a packing run.
type Result struct {
	// Inside reports, per block, whether it ended up fully inside the
	// outline in the final exact (legalised) packing.
	Inside []bool
	// X, Y are the exact legal positions of the blocks (meaningful for
	// blocks with Inside=true).
	X, Y []int
	// WritingTime is the MCC writing time of the final selection.
	WritingTime int64
	// Moves and Accepted report annealer statistics summed over restarts.
	Moves, Accepted int
	// Restarts is the number of annealing restarts that ran.
	Restarts int
}

// state is the annealing state: a sequence pair over the blocks, evaluated
// incrementally. The packing positions are cached in a pack2d.Incremental
// (a swap replays only the stale Gamma- suffix of the two longest-path
// passes), and the per-region writing times are running sums updated only
// for blocks whose inside-outline status flipped. Cost therefore does
// O(changed) work per move instead of re-packing the whole floorplan, while
// returning bit-identical values to the full recompute (fullCost).
type state struct {
	sp     *seqpair.SeqPair
	blocks []pack2d.Block
	reds   [][]int64
	vsb    []int64
	w, h   int
	useSum bool

	inc   *pack2d.Incremental
	times []int64 // per-region writing times, consistent with inc's inside flags
	sum   int64   // sum over times, maintained for the SumObjective flow
	flips []int   // scratch for Reevaluate

	// last records the most recent move so the shared undo closure can
	// revert it without allocating per move.
	last struct{ kind, i, j int }
	undo func()

	// snaps are two reusable snapshot buffers. The annealing engine holds at
	// most one live snapshot at a time (each improvement replaces the
	// previous one), so ping-ponging between two buffers never clobbers the
	// snapshot the engine still references.
	snaps   [2]*seqpair.SeqPair
	snapIdx int
}

func newState(sp *seqpair.SeqPair, blocks []pack2d.Block, reds [][]int64, vsb []int64, w, h int, useSum bool) *state {
	s := &state{
		sp: sp, blocks: blocks, reds: reds, vsb: vsb, w: w, h: h, useSum: useSum,
		inc:   pack2d.NewIncremental(sp, blocks, w, h),
		times: append([]int64(nil), vsb...),
	}
	for _, t := range vsb {
		s.sum += t
	}
	s.undo = s.revertLast
	return s
}

func (s *state) Cost() float64 {
	s.flips = s.inc.Reevaluate(s.flips[:0])
	for _, i := range s.flips {
		var d int64
		if s.inc.Inside(i) {
			for c, r := range s.reds[i] {
				s.times[c] -= r
				d += r
			}
			s.sum -= d
		} else {
			for c, r := range s.reds[i] {
				s.times[c] += r
				d += r
			}
			s.sum += d
		}
	}
	if s.useSum {
		return float64(s.sum)
	}
	return float64(core.MaxInt64(s.times))
}

// fullCost evaluates the state from scratch with the non-incremental packing
// pipeline. It is the reference the incremental path must match exactly;
// the equivalence tests and the moves/sec benchmark use it as the
// full-repack baseline.
func (s *state) fullCost() float64 {
	pl := pack2d.PackApprox(s.sp, s.blocks)
	inside := pack2d.InsideOutline(pl, s.blocks, s.w, s.h)
	if s.useSum {
		return float64(totalTime(s.vsb, s.reds, inside))
	}
	return float64(writingTime(s.vsb, s.reds, inside))
}

func (s *state) applyMove(kind, i, j int) {
	switch kind {
	case 0:
		s.inc.SwapPos(i, j)
	case 1:
		s.inc.SwapNeg(i, j)
	default:
		a, b := s.sp.Pos[i], s.sp.Pos[j]
		s.inc.SwapBoth(a, b)
	}
	s.last.kind, s.last.i, s.last.j = kind, i, j
}

// revertLast reapplies the last move, which undoes it (every move kind is an
// involution: re-swapping the same positions restores the sequence pair).
func (s *state) revertLast() { s.applyMove(s.last.kind, s.last.i, s.last.j) }

func (s *state) Perturb(rng *rand.Rand) func() {
	n := s.sp.Len()
	if n < 2 {
		return func() {}
	}
	i, j := rng.Intn(n), rng.Intn(n)
	for j == i {
		j = rng.Intn(n)
	}
	s.applyMove(rng.Intn(3), i, j)
	return s.undo
}

// PerturbCost fuses Perturb and Cost (anneal.DeltaState): the move is
// evaluated incrementally right after it is applied. It consumes the same
// random draws and returns the same cost as the two separate calls would.
func (s *state) PerturbCost(rng *rand.Rand) (float64, func()) {
	undo := s.Perturb(rng)
	return s.Cost(), undo
}

func (s *state) Snapshot() interface{} {
	buf := s.snaps[s.snapIdx]
	if buf == nil {
		buf = s.sp.Clone()
		s.snaps[s.snapIdx] = buf
	} else {
		buf.CopyFrom(s.sp)
	}
	s.snapIdx = 1 - s.snapIdx
	return buf
}

func (s *state) Restore(v interface{}) {
	s.sp.CopyFrom(v.(*seqpair.SeqPair))
	// The sequence pair changed wholesale: rebuild the index mirrors and
	// replay the full packing on the next Cost. The running region times
	// stay consistent because Reevaluate reports flips against the cached
	// inside flags.
	s.inc.Reset()
}

func regionTimes(vsb []int64, reds [][]int64, inside []bool) []int64 {
	return regionTimesInto(make([]int64, len(vsb)), vsb, reds, inside)
}

// regionTimesInto computes the per-region writing times into dst (len(vsb)),
// so per-evaluation callers can reuse one scratch buffer instead of
// allocating a fresh slice each time.
func regionTimesInto(dst []int64, vsb []int64, reds [][]int64, inside []bool) []int64 {
	copy(dst, vsb)
	for i, in := range inside {
		if !in {
			continue
		}
		for c, r := range reds[i] {
			dst[c] -= r
		}
	}
	return dst
}

func writingTime(vsb []int64, reds [][]int64, inside []bool) int64 {
	return core.MaxInt64(regionTimes(vsb, reds, inside))
}

func totalTime(vsb []int64, reds [][]int64, inside []bool) int64 {
	var s int64
	for _, t := range regionTimes(vsb, reds, inside) {
		s += t
	}
	return s
}

// Pack places the blocks on a W x H stencil minimizing the MCC writing time
// computed against the per-region pure-VSB times vsb. A done context stops
// the annealing early; the best floorplan found so far is still legalised
// and returned.
func Pack(ctx context.Context, blocks []Block, vsb []int64, w, h int, opt Options) *Result {
	n := len(blocks)
	res := &Result{
		Inside: make([]bool, n),
		X:      make([]int, n),
		Y:      make([]int, n),
	}
	if n == 0 {
		res.WritingTime = core.MaxInt64(vsb)
		return res
	}

	raw := make([]pack2d.Block, n)
	reds := make([][]int64, n)
	for i, b := range blocks {
		raw[i] = b.Block
		reds[i] = b.Reductions
	}

	// Shelf-pack the blocks in decreasing order of writing-time reduction
	// per unit area for the initial floorplan, so the annealer starts from a
	// selection at least as good as a profit-density greedy packing. Density
	// rather than absolute reduction keeps multi-character cluster blocks
	// from outranking individually better characters just because they are
	// bigger.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	density := func(i int) float64 {
		var t int64
		for _, r := range reds[i] {
			t += r
		}
		area := raw[i].W * raw[i].H
		if area <= 0 {
			area = 1
		}
		return float64(t) / float64(area)
	}
	sort.Slice(order, func(a, b int) bool { return density(order[a]) > density(order[b]) })
	shelf := shelfInitial(raw, order, w)

	mkState := func(sp *seqpair.SeqPair) *state {
		return newState(sp, raw, reds, vsb, w, h, opt.SumObjective)
	}

	budget := opt.MoveBudget
	if budget <= 0 {
		budget = defaultBudget(n)
	}
	movesPerTemp := budget / 80
	if movesPerTemp < 10 {
		movesPerTemp = 10
	}

	restarts := opt.Restarts
	if restarts <= 0 {
		restarts = 1
	}
	if opt.SkipAnneal {
		restarts = 1
	}

	// pick legalises a floorplan with the exact pairwise blank sharing and
	// recomputes the selection from it.
	timesScratch := make([]int64, len(vsb))
	pick := func(sp *seqpair.SeqPair) ([]bool, *pack2d.Placement, int64) {
		exact := pack2d.PackExact(sp, raw)
		inside := pack2d.InsideOutline(exact, raw, w, h)
		return inside, exact, core.MaxInt64(regionTimesInto(timesScratch, vsb, reds, inside))
	}

	var inside []bool
	var exact *pack2d.Placement
	var wt int64
	if opt.SkipAnneal {
		inside, exact, wt = pick(shelf)
	} else {
		// The time limit bounds the whole run, not each restart, so it is
		// enforced as a context deadline shared by every restart rather
		// than per-restart inside anneal.Minimize.
		if opt.TimeLimit > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, opt.TimeLimit)
			defer cancel()
		}
		// Temperatures are scaled to typical per-move cost deltas (a small
		// fraction of the total writing time), not to the absolute cost.
		// The state built for the estimate is handed to restart 0 with its
		// evaluation cache already warm, so seeding the temperature no
		// longer costs a second full pack before the loop starts.
		st0 := mkState(shelf.Clone())
		initialTemp := st0.Cost() * 0.01
		if initialTemp < 50 {
			initialTemp = 50
		}
		runs := anneal.MultiStart(ctx, func(r int) anneal.State {
			if r == 0 && !opt.RandomInitial {
				return st0
			}
			sp := shelf.Clone()
			if opt.RandomInitial || r > 0 {
				// Later restarts diversify from seeded random sequence pairs;
				// the initial depends only on the seed and restart index, so
				// the run set is reproducible.
				sp = seqpair.Random(n, rand.New(rand.NewSource(opt.Seed+int64(r)*104729)))
			}
			return mkState(sp)
		}, restarts, opt.Workers, anneal.Options{
			Seed:         opt.Seed + 1,
			InitialTemp:  initialTemp,
			FinalTemp:    initialTemp * 2e-3,
			MovesPerTemp: movesPerTemp,
			Cooling:      0.93,
		})
		res.Restarts = len(runs)
		// Merge in restart order: the exact (legalised) evaluation decides,
		// ties go to the lowest restart index. Completion order never matters.
		for _, run := range runs {
			res.Moves += run.Result.Moves
			res.Accepted += run.Result.Accepted
			if ins, ex, w := pick(run.State.(*state).sp); exact == nil || w < wt {
				inside, exact, wt = ins, ex, w
			}
		}
	}
	if !opt.RandomInitial && !opt.SkipAnneal {
		// The annealing cost uses the approximate packing; if every annealed
		// floorplan turns out worse than the initial shelf floorplan under
		// the exact evaluation, keep the initial.
		if insideInit, exactInit, wtInit := pick(shelf); wtInit < wt {
			inside, exact, wt = insideInit, exactInit, wtInit
		}
	}
	copy(res.Inside, inside)
	copy(res.X, exact.X)
	copy(res.Y, exact.Y)
	res.WritingTime = wt
	return res
}

// shelfInitial builds a sequence pair that realises a shelf (row-by-row)
// layout of the blocks in their given order: blocks fill a shelf left to
// right until the stencil width is exceeded, then a new shelf starts above.
// Starting the annealer from this floorplan rather than a random permutation
// means it never does worse than a profit-ordered shelf packing.
func shelfInitial(blocks []pack2d.Block, order []int, stencilW int) *seqpair.SeqPair {
	n := len(blocks)
	var shelves [][]int
	var cur []int
	width := 0
	for _, i := range order {
		w := blocks[i].W
		if width > 0 && width+w > stencilW {
			shelves = append(shelves, cur)
			cur, width = nil, 0
		}
		cur = append(cur, i)
		width += w
	}
	if len(cur) > 0 {
		shelves = append(shelves, cur)
	}
	sp := &seqpair.SeqPair{Pos: make([]int, 0, n), Neg: make([]int, 0, n)}
	// Gamma+: shelves from top to bottom; Gamma-: shelves from bottom to
	// top; both left to right inside a shelf. A block on a lower shelf then
	// follows in Gamma+ and precedes in Gamma-, i.e. it is "below".
	for s := len(shelves) - 1; s >= 0; s-- {
		sp.Pos = append(sp.Pos, shelves[s]...)
	}
	for s := 0; s < len(shelves); s++ {
		sp.Neg = append(sp.Neg, shelves[s]...)
	}
	return sp
}

// defaultBudget scales the move budget sub-linearly with the block count so
// large MCC instances stay tractable.
func defaultBudget(n int) int {
	b := 40 * n
	if b < 2000 {
		b = 2000
	}
	if b > 60000 {
		b = 60000
	}
	return b
}
