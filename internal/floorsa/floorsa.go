// Package floorsa implements fixed-outline floorplanning of OSP blocks with
// simulated annealing over the sequence-pair representation. A block is
// either a single character (the prior-work flow of the paper, used as the
// 2D baseline) or a cluster of characters (the paper's clustered E-BLOW
// flow, which runs the same engine on the clustered instance). The cost of a
// floorplan is the MCC writing time computed from the blocks that land
// inside the stencil outline, so selection and placement are optimized
// together exactly as in the fixed-outline formulation of the prior work.
//
// Shelf is the annealer's starting floorplan on its own: a profit-density
// shelf packing whose shelves count the blank that neighbours share.
// Workspace.Shelf is its workspace form: it packs into buffers the caller
// keeps, so a caller that reuses a Workspace shelf-packs without
// allocating. The served E-BLOW 2D planner calls it on a pooled workspace;
// Shelf, Pack's starting floorplan and Pack's legalisation run on a
// Workspace too, so there is one shelf and one legalisation.
//
// Pack is cancellable through its context and supports multi-start
// annealing: Restarts independent seeded runs execute on a worker pool and
// the best legalised floorplan wins. The winner is picked by scanning the
// restarts in index order, so the result is identical for a fixed seed no
// matter how many workers ran them.
package floorsa

import (
	"cmp"
	"context"
	"math/rand"
	"slices"

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

// regionTimesInto writes into times, whose capacity it reuses, the
// per-region writing times of the blocks flagged inside, and returns it.
func regionTimesInto(times, vsb []int64, reds [][]int64, inside []bool) []int64 {
	times = append(times[:0], vsb...)
	for i, in := range inside {
		if !in {
			continue
		}
		for c, r := range reds[i] {
			times[c] -= r
		}
	}
	return times
}

func writingTime(vsb []int64, reds [][]int64, inside []bool) int64 {
	return core.MaxInt64(regionTimesInto(nil, vsb, reds, inside))
}

func totalTime(vsb []int64, reds [][]int64, inside []bool) int64 {
	var s int64
	for _, t := range regionTimesInto(nil, vsb, reds, inside) {
		s += t
	}
	return s
}

// Pack places the blocks on a W x H stencil minimizing the MCC writing time
// computed against the per-region pure-VSB times vsb. A done context stops
// the annealing early; the best floorplan found so far is still legalised
// and returned. Restart 0 starts from the Shelf floorplan, and the result is
// never worse than Shelf's.
func Pack(ctx context.Context, blocks []Block, vsb []int64, w, h int, opt Options) *Result {
	n := len(blocks)
	if n == 0 {
		return Shelf(blocks, vsb, w, h)
	}
	raw, reds := split(blocks)
	var ws Workspace
	shelf := ws.shelfPair(raw, reds, w)

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

	// Temperatures are scaled to typical per-move cost deltas (a small
	// fraction of the total writing time), not to the absolute cost. The
	// state built for the estimate is handed to restart 0 with its
	// evaluation cache already warm, so seeding the temperature no longer
	// costs a second full pack before the loop starts.
	st0 := mkState(shelf.Clone())
	initialTemp := st0.Cost() * 0.01
	if initialTemp < 50 {
		initialTemp = 50
	}
	runs := anneal.MultiStart(ctx, func(r int) anneal.State {
		if r == 0 {
			return st0
		}
		// Later restarts diversify from seeded random sequence pairs; the
		// initial depends only on the seed and restart index, so the run
		// set is reproducible.
		return mkState(seqpair.Random(n, rand.New(rand.NewSource(opt.Seed+int64(r)*104729))))
	}, restarts, opt.Workers, anneal.Options{
		Seed:         opt.Seed + 1,
		InitialTemp:  initialTemp,
		FinalTemp:    initialTemp * 2e-3,
		MovesPerTemp: movesPerTemp,
		Cooling:      0.93,
	})

	// Merge in restart order: the exact (legalised) evaluation decides, ties
	// go to the lowest restart index. Completion order never matters.
	var best *Result
	var moves, accepted int
	for _, run := range runs {
		moves += run.Result.Moves
		accepted += run.Result.Accepted
		if res := new(Workspace).legalise(run.State.(*state).sp, raw, reds, vsb, w, h); best == nil || res.WritingTime < best.WritingTime {
			best = res
		}
	}
	// The annealing cost uses the approximate packing; if every annealed
	// floorplan turns out worse than the shelf under the exact evaluation,
	// keep the shelf.
	if res := ws.legalise(shelf, raw, reds, vsb, w, h); best == nil || res.WritingTime < best.WritingTime {
		best = res
	}
	best.Moves, best.Accepted, best.Restarts = moves, accepted, len(runs)
	return best
}

// Shelf packs the blocks row by row in decreasing order of writing-time
// reduction per unit area and legalises the floorplan with the exact
// pairwise blank sharing. It is one sort and one O(n^2) exact pack; Pack's
// annealer starts from the same floorplan. It is Workspace.Shelf on a fresh
// workspace, so the Result owns its slices.
func Shelf(blocks []Block, vsb []int64, w, h int) *Result {
	raw, reds := split(blocks)
	return new(Workspace).Shelf(raw, reds, vsb, w, h)
}

// Workspace holds the buffers of a shelf packing and its legalisation, so a
// caller that keeps one packs and legalises without allocating once the
// buffers have grown to its largest input. The zero value is ready to use;
// a Workspace serves one goroutine at a time. Every buffer is fully written
// before it is read, so a result does not depend on earlier calls.
type Workspace struct {
	order   []int // the blocks in shelf order; also the shelf's Gamma-
	density []float64
	ends    []int // ends[s] is the end of shelf s in order
	widths  []int
	sp      seqpair.SeqPair
	pl      pack2d.Placement
	idx     []int
	inside  []bool
	times   []int64
	res     Result
}

// Shelf is the package-level Shelf over blocks given as geometry raw and
// reductions reds (reds[i] belongs to raw[i]). The Result and its slices
// belong to the workspace: they hold until its next call.
func (ws *Workspace) Shelf(raw []pack2d.Block, reds [][]int64, vsb []int64, w, h int) *Result {
	return ws.legalise(ws.shelfPair(raw, reds, w), raw, reds, vsb, w, h)
}

// split separates the blocks' geometry from their reductions.
func split(blocks []Block) ([]pack2d.Block, [][]int64) {
	raw := make([]pack2d.Block, len(blocks))
	reds := make([][]int64, len(blocks))
	for i, b := range blocks {
		raw[i] = b.Block
		reds[i] = b.Reductions
	}
	return raw, reds
}

// legalise packs a floorplan with the exact pairwise blank sharing and
// selects the blocks that land inside the outline. The Result belongs to
// the workspace.
func (ws *Workspace) legalise(sp *seqpair.SeqPair, raw []pack2d.Block, reds [][]int64, vsb []int64, w, h int) *Result {
	ws.idx = slices.Grow(ws.idx[:0], len(raw))[:len(raw)]
	pack2d.PackExactInto(&ws.pl, ws.idx, sp, raw)
	ws.inside = pack2d.InsideOutlineInto(ws.inside, &ws.pl, raw, w, h)
	ws.times = regionTimesInto(ws.times, vsb, reds, ws.inside)
	ws.res = Result{Inside: ws.inside, X: ws.pl.X, Y: ws.pl.Y, WritingTime: core.MaxInt64(ws.times)}
	return &ws.res
}

// shelfPair returns the shelf floorplan's sequence pair, which belongs to
// the workspace. Blocks are taken in decreasing order of writing-time
// reduction per unit area, so the shelf is a profit-density greedy packing.
// Density rather than absolute reduction keeps multi-character cluster
// blocks from outranking individually better characters just because they
// are bigger.
func (ws *Workspace) shelfPair(raw []pack2d.Block, reds [][]int64, w int) *seqpair.SeqPair {
	n := len(raw)
	ws.order, ws.density = slices.Grow(ws.order[:0], n)[:n], slices.Grow(ws.density[:0], n)[:n]
	order, density := ws.order, ws.density
	for i := range order {
		order[i] = i
		var t int64
		for _, r := range reds[i] {
			t += r
		}
		area := max(raw[i].W*raw[i].H, 1)
		density[i] = float64(t) / float64(area)
	}
	slices.SortFunc(order, func(a, b int) int { return compareShelf(density, a, b) })
	ws.ends, ws.widths = fillShelves(raw, order, w, ws.ends[:0], ws.widths[:0])
	shelfSeqPair(&ws.sp, order, ws.ends)
	return &ws.sp
}

// compareShelf orders block indices for the shelf: by density descending,
// NaN last, then by index. The order is strict, so the shelf does not
// depend on how a sort places equal densities.
func compareShelf(density []float64, a, b int) int {
	return cmp.Or(cmp.Compare(density[b], density[a]), cmp.Compare(a, b))
}

// fillShelves cuts the blocks, in their given order, into shelves (rows)
// filled left to right. Shelves are contiguous runs of order: it appends to
// ends where each shelf ends in order, and to widths each shelf's width. A
// block adds its width less the blank it shares with its left neighbour,
// min(BlankR, BlankL), which is the width PackExact gives the shelf as long
// as every block has BlankL+BlankR <= W: a non-adjacent left neighbour then
// never binds. A block that would take the shelf past the stencil width
// starts a new shelf instead, where it adds its full width.
func fillShelves(blocks []pack2d.Block, order []int, stencilW int, ends, widths []int) ([]int, []int) {
	start, width := 0, 0
	for k, i := range order {
		b := blocks[i]
		add := b.W
		if k > start {
			add -= min(blocks[order[k-1]].BlankR, b.BlankL)
			if width+add > stencilW {
				ends, widths = append(ends, k), append(widths, width)
				start, width, add = k, 0, b.W
			}
		}
		width += add
	}
	if len(order) > 0 {
		ends, widths = append(ends, len(order)), append(widths, width)
	}
	return ends, widths
}

// shelfSeqPair builds into sp the sequence pair that realises the shelves
// of order cut at ends, bottom shelf first. Gamma+ lists the shelves from
// top to bottom, Gamma- from bottom to top, both left to right inside a
// shelf, so Gamma- is order itself. A block on a lower shelf then follows
// in Gamma+ and precedes in Gamma-, i.e. it is "below".
func shelfSeqPair(sp *seqpair.SeqPair, order, ends []int) {
	sp.Neg = order
	sp.Pos = slices.Grow(sp.Pos[:0], len(order))
	for s := len(ends) - 1; s >= 0; s-- {
		start := 0
		if s > 0 {
			start = ends[s-1]
		}
		sp.Pos = append(sp.Pos, order[start:ends[s]]...)
	}
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
