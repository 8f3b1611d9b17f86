package oned

import (
	"sort"

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
// blank-sorted characters, kept as its total width, its outer blanks and a
// back pointer. The order itself is only rebuilt for the winning state.
type dpState struct {
	width  int
	left   int  // left blank of the leftmost character
	right  int  // right blank of the rightmost character
	parent int  // DP history index of the state this one extends; -1 at the root
	atLeft bool // this step's character went to the left end
}

// dpLink is what the DP history keeps of a pruned-in state: only its back
// pointer, which is all the order rebuild needs.
type dpLink struct {
	parent int32
	atLeft bool
}

// refineRow finds a near-minimal-width ordering for the characters of a row.
// Characters are processed in decreasing order of symmetric blank; each step
// extends every kept partial solution at the left or the right end and prunes
// dominated solutions, keeping at most pruneThreshold of them.
func refineRow(in *core.Instance, chars []int, pruneThreshold int) []int {
	if len(chars) == 0 {
		return nil
	}
	sorted := append([]int(nil), chars...)
	sort.Slice(sorted, func(a, b int) bool {
		sa := in.Characters[sorted[a]].SymmetricHBlank()
		sb := in.Characters[sorted[b]].SymmetricHBlank()
		if sa != sb {
			return sa > sb
		}
		return sorted[a] < sorted[b]
	})

	// hist links every kept state of every step, in step order, so back
	// pointers stay valid after their generation has been replaced. Step k
	// keeps at most min(2^k, pruneThreshold) states, which sizes hist and
	// the two generation buffers up front.
	size, states := 1, 1
	for range sorted[1:] {
		states = min(2*states, pruneThreshold)
		size += states
	}
	first := &in.Characters[sorted[0]]
	hist := make([]dpLink, 1, size)
	hist[0] = dpLink{parent: -1}
	solutions := make([]dpState, 1, 2*states)
	solutions[0] = dpState{width: first.Width, left: first.BlankLeft, right: first.BlankRight, parent: -1}
	next := make([]dpState, 0, 2*states)

	for _, id := range sorted[1:] {
		c := &in.Characters[id]
		base := len(hist) - len(solutions)
		next = next[:0]
		for k, s := range solutions {
			// Insert at the left end: the character's right blank overlaps
			// with the current left end.
			next = append(next, dpState{
				width:  s.width + c.Width - min(c.BlankRight, s.left),
				left:   c.BlankLeft,
				right:  s.right,
				parent: base + k,
				atLeft: true,
			})
			// Insert at the right end.
			next = append(next, dpState{
				width:  s.width + c.Width - min(c.BlankLeft, s.right),
				left:   s.left,
				right:  c.BlankRight,
				parent: base + k,
			})
		}
		kept := pruneInferior(next, pruneThreshold)
		for _, s := range kept {
			hist = append(hist, dpLink{parent: int32(s.parent), atLeft: s.atLeft})
		}
		solutions, next = kept, solutions
	}

	best := 0
	for k := 1; k < len(solutions); k++ {
		if solutions[k].width < solutions[best].width {
			best = k
		}
	}
	// Walk the back pointers from the last step to the first, filling the
	// order from both ends inwards: each step's character is the outermost
	// one on its side.
	order := make([]int, len(sorted))
	lo, hi := 0, len(order)-1
	link := hist[len(hist)-len(solutions)+best]
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

// pruneInferior removes dominated partial solutions, in place. Solution B is
// dominated by A when A is no wider and both of A's outer blanks are at
// least as large (so any future extension of B can be replicated at least
// as well from A). If more than limit solutions survive, the narrowest ones
// are kept.
func pruneInferior(sols []dpState, limit int) []dpState {
	sort.Slice(sols, func(i, j int) bool {
		if sols[i].width != sols[j].width {
			return sols[i].width < sols[j].width
		}
		if sols[i].left != sols[j].left {
			return sols[i].left > sols[j].left
		}
		return sols[i].right > sols[j].right
	})
	// kept is a prefix of sols that never overtakes the read position.
	kept := sols[:0]
	for _, s := range sols {
		dominated := false
		for _, k := range kept {
			if k.width <= s.width && k.left >= s.left && k.right >= s.right {
				dominated = true
				break
			}
		}
		if !dominated {
			kept = append(kept, s)
		}
	}
	if len(kept) > limit {
		kept = kept[:limit]
	}
	return kept
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
// state and the characters assigned to it (unassign on an evicted character
// mutates s.rows[j], s.assigned[i] and s.solved[i] for a character i that no
// other row holds), so rows are independent and the outcome is identical for
// any worker count.
func (s *solver) refineAllRows() {
	profits := s.currentProfits()
	par.For(s.opt.workerCount(), s.m, func(j int) {
		r := &s.rows[j]
		if len(r.chars) == 0 {
			r.order, r.width = nil, 0
			return
		}
		order := refineRow(s.in, r.chars, s.opt.PruneThreshold)
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
			evicted := order[worst]
			s.unassign(evicted)
			s.solved[evicted] = true
			order = refineRow(s.in, s.rows[j].chars, s.opt.PruneThreshold)
			width = core.MinRowLength(s.in, order)
		}
		r.order = order
		r.width = width
	})
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
