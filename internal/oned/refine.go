package oned

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"eblow/internal/core"
	"eblow/internal/par"
)

// This file implements the refinement stage (Algorithm 3 of the paper): a
// dynamic program over single-row orderings that exploits the structure of
// the symmetric-blank optimum (characters sorted by blank, each inserted at
// the left or right end) while evaluating the true asymmetric blanks. It
// also contains the row legalisation that drops characters when the
// symmetric-blank estimate was too optimistic.

// dpState is one DP state: a packed order of a prefix of the row's
// blank-sorted characters, kept as its sort key, its outer blanks and a back
// pointer. The order itself is only rebuilt for the winning state; the
// width is read back from the key (dpPacking.width).
type dpState struct {
	key    int64 // the state's width and outer blanks, see dpPacking
	left   int   // left blank of the leftmost character
	right  int   // right blank of the rightmost character
	parent int32 // DP history index of the state this one extends; -1 at the root
	atLeft bool  // this step's character went to the left end
}

// dpPacking maps a DP state's order (width ascending, then left and right
// blank descending) onto one int64 key, so pruneInferior's sort compares
// one integer. Every blank of the row takes b bits, stored as top minus the
// blank so that a larger blank sorts first, and the width takes the bits
// above them. A row whose summed width and blanks do not fit in 63 bits is
// not packed: its key is the width alone, and compareStates breaks key ties
// on the blanks, so both forms order states exactly alike.
type dpPacking struct {
	packed bool
	b      uint  // bits per blank
	top    int64 // 1<<b - 1, at least every blank of the row
}

// packingFor returns the packing of a row holding chars. A state's width
// never exceeds the row's summed width.
func packingFor(in *core.Instance, chars []int) dpPacking {
	var maxBlank, sum int
	for _, id := range chars {
		c := &in.Characters[id]
		maxBlank = max(maxBlank, c.BlankLeft, c.BlankRight)
		if sum > math.MaxInt-c.Width {
			return dpPacking{}
		}
		sum += c.Width
	}
	return newPacking(maxBlank, sum)
}

// newPacking returns the packing for states no wider than maxWidth whose
// blanks are at most maxBlank.
func newPacking(maxBlank, maxWidth int) dpPacking {
	b := uint(bits.Len(uint(maxBlank)))
	if uint(bits.Len(uint(maxWidth)))+2*b > 63 {
		return dpPacking{}
	}
	return dpPacking{packed: true, b: b, top: 1<<b - 1}
}

// state returns the DP state of the given width and outer blanks.
func (p dpPacking) state(width, left, right int, parent int32, atLeft bool) dpState {
	key := int64(width)
	if p.packed {
		key = key<<(2*p.b) | (p.top-int64(left))<<p.b | (p.top - int64(right))
	}
	return dpState{key: key, left: left, right: right, parent: parent, atLeft: atLeft}
}

// width returns the width of the state with the given key.
func (p dpPacking) width(key int64) int {
	if p.packed {
		return int(key >> (2 * p.b))
	}
	return int(key)
}

// dpLink is what the DP history keeps of a pruned-in state: only its back
// pointer, which is all the order rebuild needs.
type dpLink struct {
	parent int32
	atLeft bool
}

// rowDP is the reusable scratch of refineRow's dynamic program: the
// blank-sorted characters and their sort keys, the history of back
// pointers and the two state generations. The solver keeps one per worker
// of the row refinement, so every row and eviction retry a worker refines
// reuses the same buffers.
type rowDP struct {
	keys      []int64
	sorted    []int
	hist      []dpLink
	cur, next []dpState
}

// refineRow finds a near-minimal-width ordering for the characters of a row
// and writes it into dst's backing array (nil allocates); no chars yields
// nil. Characters are processed in decreasing order of symmetric blank;
// each step extends every kept partial solution at the left or the right
// end and prunes dominated solutions, keeping at most pruneThreshold of
// them.
func (w *rowDP) refineRow(in *core.Instance, chars []int, pruneThreshold int, dst []int) []int {
	if len(chars) == 0 {
		return nil
	}
	sorted := w.sortByBlank(in, chars)

	// hist links every kept state of every step, in step order, so back
	// pointers stay valid after their generation has been replaced. Step k
	// keeps at most min(2^k, pruneThreshold) states, which sizes hist and
	// the two generation buffers up front.
	size, states := 1, 1
	for range sorted[1:] {
		states = min(2*states, pruneThreshold)
		size += states
	}
	pack := packingFor(in, sorted)
	first := &in.Characters[sorted[0]]
	hist := append(slices.Grow(w.hist[:0], size), dpLink{parent: -1})
	solutions := append(slices.Grow(w.cur[:0], 2*states), pack.state(first.Width, first.BlankLeft, first.BlankRight, -1, false))
	next := slices.Grow(w.next[:0], 2*states)

	for _, id := range sorted[1:] {
		c := &in.Characters[id]
		base := int32(len(hist) - len(solutions))
		next = next[:0]
		for k, s := range solutions {
			width := pack.width(s.key)
			// Insert at the left end: the character's right blank overlaps
			// with the current left end.
			next = append(next, pack.state(width+c.Width-min(c.BlankRight, s.left), c.BlankLeft, s.right, base+int32(k), true))
			// Insert at the right end.
			next = append(next, pack.state(width+c.Width-min(c.BlankLeft, s.right), s.left, c.BlankRight, base+int32(k), false))
		}
		kept := pruneInferior(next, pruneThreshold)
		for _, s := range kept {
			hist = append(hist, dpLink{parent: s.parent, atLeft: s.atLeft})
		}
		solutions, next = kept, solutions
	}
	w.hist, w.cur, w.next = hist, solutions, next

	// Walk the back pointers from the last step's first state, the
	// narrowest (pruneInferior keeps the states sorted by width), to the
	// first step, filling the order from both ends inwards: each step's
	// character is the outermost one on its side.
	order := slices.Grow(dst[:0], len(sorted))[:len(sorted)]
	lo, hi := 0, len(order)-1
	link := hist[len(hist)-len(solutions)]
	for k := len(sorted) - 1; k >= 0; k-- {
		if link.atLeft {
			order[lo] = sorted[k]
			lo++
		} else {
			order[hi] = sorted[k]
			hi--
		}
		if link.parent >= 0 {
			link = hist[link.parent]
		}
	}
	return order
}

// sortByBlank returns chars in w.sorted, ordered by symmetric blank
// descending, then by id. The order is strict, so any sort gives this
// permutation. When every blank fits in 31 bits and every id in 32, as it
// does for fewer than 2^32 characters under 2^32 wide, one int64 key per
// character (the negated blank above the id) lets the sort compare
// integers.
func (w *rowDP) sortByBlank(in *core.Instance, chars []int) []int {
	sorted := append(w.sorted[:0], chars...)
	w.sorted = sorted
	keys := slices.Grow(w.keys[:0], len(chars))
	for _, id := range chars {
		blank := in.Characters[id].SymmetricHBlank()
		if blank > math.MaxInt32 || uint64(id) > math.MaxUint32 {
			slices.SortFunc(sorted, func(a, b int) int {
				sa := in.Characters[a].SymmetricHBlank()
				sb := in.Characters[b].SymmetricHBlank()
				if sa != sb {
					return cmp.Compare(sb, sa)
				}
				return cmp.Compare(a, b)
			})
			return sorted
		}
		keys = append(keys, int64(-blank)<<32|int64(id))
	}
	w.keys = keys
	slices.Sort(keys)
	for k, key := range keys {
		sorted[k] = int(key & math.MaxUint32)
	}
	return sorted
}

// pruneInferior removes dominated partial solutions, in place. Solution B is
// dominated by A when A is no wider and both of A's outer blanks are at
// least as large (so any future extension of B can be replicated at least
// as well from A). If more than limit solutions survive, the narrowest ones
// are kept, in compareStates order.
func pruneInferior(sols []dpState, limit int) []dpState {
	slices.SortFunc(sols, compareStates)
	// kept is a prefix of sols that never overtakes the read position. Every
	// kept state sorts before s, so it is no wider than s. A state with a
	// blank above every kept state's blank on that side cannot be dominated,
	// so the scan only runs for the others. Once limit states are kept, the
	// later ones would be cut off anyway.
	kept := sols[:0]
	maxLeft, maxRight := math.MinInt, math.MinInt
	for _, s := range sols {
		if len(kept) == limit {
			break
		}
		if s.left <= maxLeft && s.right <= maxRight && dominated(kept, s) {
			continue
		}
		kept = append(kept, s)
		maxLeft, maxRight = max(maxLeft, s.left), max(maxRight, s.right)
	}
	return kept
}

// compareStates orders DP states by width, then by the left and right
// blank descending, then in the order refineRow generated them: by parent,
// the left insertion first. The key decides every pair whose keys differ,
// and equal keys fall through to the blanks, which then only matter for an
// unpacked row. Every state of a generation has its own (parent, atLeft),
// so the order is strict, and of states that share width and blanks the
// first generated survives pruning.
func compareStates(a, b dpState) int {
	if a.key != b.key {
		return cmp.Compare(a.key, b.key)
	}
	if a.left != b.left {
		return cmp.Compare(b.left, a.left)
	}
	if a.right != b.right {
		return cmp.Compare(b.right, a.right)
	}
	if a.parent != b.parent {
		return cmp.Compare(a.parent, b.parent)
	}
	switch {
	case a.atLeft == b.atLeft:
		return 0
	case a.atLeft:
		return -1
	}
	return 1
}

// dominated reports whether a kept state has both outer blanks at least as
// large as s's.
func dominated(kept []dpState, s dpState) bool {
	for _, k := range kept {
		if k.left >= s.left && k.right >= s.right {
			return true
		}
	}
	return false
}

// positionsForOrder packs an ordered row flush left and returns the x
// coordinate of every character's bounding box.
func positionsForOrder(in *core.Instance, order []int) []int {
	xs := make([]int, len(order))
	for k := 1; k < len(order); k++ {
		prev := &in.Characters[order[k-1]]
		cur := &in.Characters[order[k]]
		xs[k] = xs[k-1] + prev.Width - min(prev.BlankRight, cur.BlankLeft) // core.HOverlap
	}
	return xs
}

// refineAllRows orders every row, legalising rows that overflow the stencil
// width by evicting their lowest-profit characters. Rows are refined on the
// worker pool: the DP and the eviction loop of row j only touch row j's
// state and the characters assigned to it (leaveRow on an evicted character
// mutates s.rows[j], s.assigned[i] and s.solved[i] for a character i that no
// other row holds), so rows are independent and the outcome is identical for
// any worker count. Each worker refines one contiguous run of rows with its
// own rowDP scratch. The region times are shared by every row, so the
// evictions are recorded per row and put back on them after the loop.
func (s *solver) refineAllRows() {
	profits := s.currentProfits()
	evicted := make([][]int, s.m)
	workers := min(s.opt.workerCount(), s.m)
	if len(s.dp) < workers {
		s.dp = make([]rowDP, workers)
	}
	chunk := (s.m + workers - 1) / workers
	par.For(workers, workers, func(c int) {
		for j := c * chunk; j < min((c+1)*chunk, s.m); j++ {
			evicted[j] = s.refineRowEvicting(&s.dp[c], j, profits)
		}
	})
	for _, ids := range evicted {
		for _, i := range ids {
			s.restoreTimes(i)
		}
	}
}

// refineRowEvicting orders row j with the DP scratch w, evicting its
// lowest-profit character and ordering again while the row overflows the
// stencil width, and returns the evicted characters.
func (s *solver) refineRowEvicting(w *rowDP, j int, profits []float64) []int {
	r := &s.rows[j]
	if len(r.chars) == 0 {
		r.order, r.width = nil, 0
		return nil
	}
	var evicted []int
	order := w.refineRow(s.in, r.chars, pruneThreshold, nil)
	width := core.MinRowLength(s.in, order)
	for width > s.w && len(order) > 0 {
		if s.ctx.Err() != nil {
			break // Solve surfaces ctx.Err(); partial orders are discarded
		}
		// Evict the lowest-profit character and re-run the ordering.
		worst := 0
		for k := 1; k < len(order); k++ {
			if profits[order[k]] < profits[order[worst]] {
				worst = k
			}
		}
		i := order[worst]
		s.leaveRow(i)
		s.solved[i] = true
		evicted = append(evicted, i)
		order = w.refineRow(s.in, r.chars, pruneThreshold, order)
		width = core.MinRowLength(s.in, order)
	}
	r.order = order
	r.width = width
	return evicted
}

// rowWidthWithOrder recomputes a row's packed width for an arbitrary order.
func (s *solver) rowWidthWithOrder(order []int) int {
	return core.MinRowLength(s.in, order)
}

// buildSolution assembles the final core.Solution from the per-row orders.
func (s *solver) buildSolution() *core.Solution {
	sol := &core.Solution{Selected: s.selection()}
	for j := range s.rows {
		r := &s.rows[j]
		if len(r.order) == 0 {
			continue
		}
		xs := positionsForOrder(s.in, r.order)
		sol.Rows = append(sol.Rows, core.Row{
			Y:     j * s.in.RowHeight,
			Chars: append([]int(nil), r.order...),
			X:     xs,
		})
	}
	sol.PlacementsFromRows()
	return sol
}
