package oned

import (
	"slices"

	"eblow/internal/core"
	"eblow/internal/matching"
)

// This file implements the two post-optimization stages of E-BLOW 1D:
// post-swap (exchange an on-stencil character for a better off-stencil one)
// and post-insertion (insert additional characters into row gaps, formulated
// as a maximum-weight bipartite matching between characters and rows, Fig. 8
// of the paper).

// postSwap runs swap passes until the writing time stops improving. A pass
// tries, for every promising unselected character, to exchange it for one
// on-stencil character (the paper's post-swap) or — when the rows are too
// tightly packed to admit a wider character one-for-one — for two adjacent
// on-stencil characters.
func (s *solver) postSwap() {
	for pass := 0; pass < 8; pass++ {
		if s.ctx.Err() != nil {
			return
		}
		if !s.postSwapOnce() {
			return
		}
	}
}

// postSwapOnce performs one sweep over the unselected candidates and reports
// whether any swap was applied.
//
// A swap is accepted when it strictly reduces the maximum region time, or
// keeps the maximum and strictly reduces the total writing time; the second
// case matters when several regions are tied at the maximum and no single
// swap can lower all of them at once. So a move of candidate u wins exactly
// when its (maximum, total) is lexicographically below (B, T): the current
// plan's (curMax, curTotal) until a move is found, that move's after (the
// best move is itself below the current plan, so a move that beats it
// beats both). The move's total needs no scan: it is the current total
// minus u's summed reduction plus the summed reductions of the characters
// it takes off, all kept in s.redSum. Given the total, the move wins
// exactly when every region stays at or under a bound: B when the total
// falls below T, and B-1 when it does not, because a move that does not
// lower the total must lower the maximum. One region over the bound rules
// the move out whatever the others hold, so the first region at the
// current maximum, which a move that does not take time off it exceeds, is
// checked inline before any scan; a one-for-one move ruled out there rules
// out the one-for-two move at the same position too. On the four
// BenchmarkSolvePlan1D instances that check rules out 96% of the 125K
// positions, and the region scan runs for 7.9K of the moves.
func (s *solver) postSwapOnce() bool {
	// times is the solver's own slice: the swaps below keep it current.
	times := s.times
	profits := s.currentProfits()

	candidates := s.unselectedByProfit(profits, postSwapCandidates)
	if len(candidates) == 0 {
		return false
	}

	// Scratch reused across every candidate: the order under test and the
	// best move found so far. A candidate order is only built once the move
	// beats both the current plan and the best move on writing time.
	var scratch, bestOut, bestOrder []int
	improvedAny := false

	for _, u := range candidates {
		if s.assigned[u] >= 0 {
			continue
		}
		ru := s.reds(u)
		hot := slices.Index(times, core.MaxInt64(times))
		curMax := times[hot]
		curTotal := sumTimes(times)
		base := curTotal - s.redSum[u]
		// B and T are the (maximum, total) a move must beat: the current
		// plan's until a move is kept, that move's after.
		B, T := curMax, curTotal
		bestRow := -1

		// below reports whether a move whose hot region ends at t and whose
		// total is total stays under the bound there: B when the total
		// falls below T, B-1 when it does not.
		below := func(t, total int64) bool {
			return t < B || t == B && total < T
		}
		// wins returns the maximum region time once u replaces v, and also
		// v2 when v2 >= 0, for a move of the given total, and whether every
		// region stays under the bound.
		wins := func(v, v2 int, total int64) (newMax int64, ok bool) {
			rv := s.reds(v)
			var rv2 []int64
			if v2 >= 0 {
				rv2 = s.reds(v2)
			}
			for c := range times {
				t := times[c] - ru[c] + rv[c]
				if rv2 != nil {
					t += rv2[c]
				}
				if !below(t, total) {
					return 0, false
				}
				newMax = max(newMax, t)
			}
			return newMax, true
		}

		// consider takes the move when scratch, the row order it produces,
		// fits the stencil width.
		consider := func(j int, newMax, newTotal int64, out ...int) {
			if s.rowWidthWithOrder(scratch) > s.w {
				return
			}
			bestRow, B, T = j, newMax, newTotal
			bestOut = append(bestOut[:0], out...)
			bestOrder = append(bestOrder[:0], scratch...)
		}

		for j := range s.rows {
			if !s.allowed(u, j) {
				continue
			}
			row := &s.rows[j]
			for k, v := range row.order {
				// The hot region rules out nearly every move, so it is
				// checked before the scan. The one-for-two move only adds
				// v2's reductions, which core validation keeps
				// non-negative, to the one-for-one move's hot region and
				// total, so a one-for-one move ruled out there rules out
				// both.
				hot1 := times[hot] - ru[hot] + s.red[v*s.nr+hot]
				total1 := base + s.redSum[v]
				if !below(hot1, total1) {
					continue
				}
				// One-for-one: replace v by u.
				if nm, ok := wins(v, -1, total1); ok {
					scratch = append(scratch[:0], row.order...)
					scratch[k] = u
					consider(j, nm, total1, v)
				}
				// One-for-two: replace the adjacent pair (v, next) by u; this
				// is the only way a wide character can enter a tightly packed
				// row.
				if k+1 < len(row.order) {
					v2 := row.order[k+1]
					total2 := total1 + s.redSum[v2]
					if !below(hot1+s.red[v2*s.nr+hot], total2) {
						continue
					}
					if nm, ok := wins(v, v2, total2); ok {
						scratch = append(scratch[:0], row.order[:k]...)
						scratch = append(scratch, u)
						scratch = append(scratch, row.order[k+2:]...)
						consider(j, nm, total2, v, v2)
					}
				}
			}
		}
		if bestRow < 0 {
			continue
		}
		// Apply the swap.
		for _, v := range bestOut {
			s.unassign(v)
		}
		s.assign(u, bestRow)
		row := &s.rows[bestRow]
		row.order = append(row.order[:0], bestOrder...)
		row.width = s.rowWidthWithOrder(row.order)
		improvedAny = true
	}
	return improvedAny
}

// sumTimes returns the total writing time over all regions.
func sumTimes(times []int64) int64 {
	var s int64
	for _, t := range times {
		s += t
	}
	return s
}

// postInsert repeatedly runs the matching-based insertion until no further
// characters can be added, then finishes with a plain right-end append pass
// so trailing slack in the rows never goes unused.
func (s *solver) postInsert() {
	for pass := 0; pass < 12; pass++ {
		if s.ctx.Err() != nil {
			return
		}
		if s.postInsertOnce() == 0 {
			break
		}
	}
	s.appendRemaining()
}

// postInsertOnce inserts additional characters into rows with spare width
// and returns the number of insertions. The assignment of characters to rows
// is a maximum-weight bipartite matching with at most one insertion per row
// (Fig. 8 of the paper); the insertion point inside a row is the gap with
// the smallest width increase.
func (s *solver) postInsertOnce() int {
	profits := s.currentProfits()
	candidates := s.unselectedByProfit(profits, postInsertCandidates)
	if len(candidates) == 0 {
		return 0
	}

	// Rows with spare capacity.
	type rowSlack struct {
		row   int
		slack int
	}
	var rows []rowSlack
	for j := range s.rows {
		slack := s.w - s.rows[j].width
		if slack > 0 {
			rows = append(rows, rowSlack{row: j, slack: slack})
		}
	}
	if len(rows) == 0 {
		return 0
	}

	type insertion struct {
		gap   int
		delta int
	}
	best := make(map[[2]int]insertion) // (candidate index, row index) -> insertion

	var edges []matching.Edge
	for ci, u := range candidates {
		for rj, rs := range rows {
			if !s.allowed(u, rs.row) {
				continue
			}
			gap, delta := s.bestInsertion(u, s.rows[rs.row].order)
			if delta <= rs.slack {
				best[[2]int{ci, rj}] = insertion{gap: gap, delta: delta}
				edges = append(edges, matching.Edge{L: ci, R: rj, Weight: profits[u]})
			}
		}
	}
	if len(edges) == 0 {
		return 0
	}
	inserted := 0
	match, _ := matching.MaxWeight(len(candidates), len(rows), edges)
	for ci, rj := range match {
		if rj < 0 {
			continue
		}
		u := candidates[ci]
		rowIdx := rows[rj].row
		ins := best[[2]int{ci, rj}]
		row := &s.rows[rowIdx]
		order := make([]int, 0, len(row.order)+1)
		order = append(order, row.order[:ins.gap]...)
		order = append(order, u)
		order = append(order, row.order[ins.gap:]...)
		width := s.rowWidthWithOrder(order)
		if width > s.w {
			continue // the symmetric estimate was off; skip this insertion
		}
		s.assign(u, rowIdx)
		row.order = order
		row.width = width
		inserted++
	}
	return inserted
}

// appendRemaining greedily appends any remaining positive-profit characters
// at the right end of the first row with enough slack (the simple insertion
// of the prior work, used here as a final clean-up).
func (s *solver) appendRemaining() {
	profits := s.currentProfits()
	candidates := s.unselectedByProfit(profits, s.n)
	for _, u := range candidates {
		cu := &s.in.Characters[u]
		for j := range s.rows {
			if !s.allowed(u, j) {
				continue
			}
			row := &s.rows[j]
			var newWidth int
			if len(row.order) == 0 {
				newWidth = cu.Width
			} else {
				last := &s.in.Characters[row.order[len(row.order)-1]]
				newWidth = row.width + cu.Width - min(last.BlankRight, cu.BlankLeft)
			}
			if newWidth <= s.w {
				s.assign(u, j)
				row.order = append(row.order, u)
				row.width = newWidth
				break
			}
		}
	}
}

// bestInsertion returns the gap index (0..len(order)) with the smallest width
// increase when inserting character u into the ordered row, and that
// increase. Characters are read through pointers and overlaps spelled out
// as core.HOverlap's min(left.BlankRight, right.BlankLeft), so the loop
// copies no Character.
func (s *solver) bestInsertion(u int, order []int) (int, int) {
	cu := &s.in.Characters[u]
	if len(order) == 0 {
		return 0, cu.Width
	}
	bestGap, bestDelta := -1, 0
	for gap := 0; gap <= len(order); gap++ {
		var delta int
		switch gap {
		case 0:
			first := &s.in.Characters[order[0]]
			delta = cu.Width - min(cu.BlankRight, first.BlankLeft)
		case len(order):
			last := &s.in.Characters[order[len(order)-1]]
			delta = cu.Width - min(last.BlankRight, cu.BlankLeft)
		default:
			a := &s.in.Characters[order[gap-1]]
			b := &s.in.Characters[order[gap]]
			delta = cu.Width - min(a.BlankRight, cu.BlankLeft) - min(cu.BlankRight, b.BlankLeft) + min(a.BlankRight, b.BlankLeft)
		}
		if bestGap < 0 || delta < bestDelta {
			bestGap, bestDelta = gap, delta
		}
	}
	return bestGap, bestDelta
}

// unselectedByProfit returns up to limit unselected characters with positive
// profit, sorted by decreasing profit.
func (s *solver) unselectedByProfit(profits []float64, limit int) []int {
	var ids []int
	for i := 0; i < s.n; i++ {
		if s.assigned[i] < 0 && profits[i] > 0 && s.width[i] <= s.w {
			ids = append(ids, i)
		}
	}
	slices.SortFunc(ids, func(a, b int) int { return compareProfit(profits, a, b) })
	if len(ids) > limit {
		ids = ids[:limit]
	}
	return ids
}
