package oned

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"eblow/internal/core"
)

// swapStats counts the kinds of post-swap moves a reference run applied.
type swapStats struct {
	oneForTwo  int // moves that replaced two adjacent characters
	tiedMax    int // moves that kept the maximum and lowered the total
	hotUnmoved int // evaluated moves whose candidate repeats nowhere in the hot region
}

// postSwapReference is postSwap with the full-scan evaluation postSwapOnce
// replaced: every move's region times are summed in one pass that stops
// only at a region above the bound, and a separate acceptance test decides
// the move. It is the reference the exact lexicographic bound must
// reproduce, move for move.
func postSwapReference(s *solver, st *swapStats) {
	for pass := 0; pass < 8; pass++ {
		if !postSwapOnceReference(s, st) {
			return
		}
	}
}

func postSwapOnceReference(s *solver, st *swapStats) bool {
	times := s.times
	profits := s.currentProfits()

	candidates := s.unselectedByProfit(profits, postSwapCandidates)
	if len(candidates) == 0 {
		return false
	}
	var scratch, bestOut, bestOrder []int
	improvedAny := false

	for _, u := range candidates {
		if s.assigned[u] >= 0 {
			continue
		}
		ru := s.reds(u)
		curMax := core.MaxInt64(times)
		curTotal := sumTimes(times)
		for c, t := range times {
			if t == curMax {
				if ru[c] == 0 {
					st.hotUnmoved++
				}
				break
			}
		}
		bestRow := -1
		var bestMax, bestTotal int64

		after := func(v, v2 int) (int64, int64) {
			rv := s.reds(v)
			var rv2 []int64
			if v2 >= 0 {
				rv2 = s.reds(v2)
			}
			bound := curMax
			if bestRow >= 0 {
				bound = bestMax
			}
			var newMax, newTotal int64
			for c := range times {
				t := times[c] - ru[c] + rv[c]
				if rv2 != nil {
					t += rv2[c]
				}
				if t > bound {
					return t, 0
				}
				if t > newMax {
					newMax = t
				}
				newTotal += t
			}
			return newMax, newTotal
		}
		wins := func(newMax, newTotal int64) bool {
			if newMax > curMax || (newMax == curMax && newTotal >= curTotal) {
				return false
			}
			return bestRow < 0 || newMax < bestMax || (newMax == bestMax && newTotal < bestTotal)
		}
		consider := func(j int, newMax, newTotal int64, out ...int) {
			if s.rowWidthWithOrder(scratch) > s.w {
				return
			}
			bestRow, bestMax, bestTotal = j, newMax, newTotal
			bestOut = append(bestOut[:0], out...)
			bestOrder = append(bestOrder[:0], scratch...)
		}

		for j := range s.rows {
			if !s.allowed(u, j) {
				continue
			}
			row := &s.rows[j]
			for k, v := range row.order {
				if nm, nt := after(v, -1); wins(nm, nt) {
					scratch = append(scratch[:0], row.order...)
					scratch[k] = u
					consider(j, nm, nt, v)
				}
				if k+1 < len(row.order) {
					v2 := row.order[k+1]
					if nm, nt := after(v, v2); wins(nm, nt) {
						scratch = append(scratch[:0], row.order[:k]...)
						scratch = append(scratch, u)
						scratch = append(scratch, row.order[k+2:]...)
						consider(j, nm, nt, v, v2)
					}
				}
			}
		}
		if bestRow < 0 {
			continue
		}
		if len(bestOut) == 2 {
			st.oneForTwo++
		}
		if bestMax == curMax {
			st.tiedMax++
		}
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

// swapInstance draws a small tie-heavy 1D instance for the post-swap
// check. Regions 0 and 1 carry the same repeats and the most of them, so
// the maximum is tied between them; about half of all repeat counts are 0,
// so many candidates leave the region at the maximum untouched; characters
// take one of three shapes and three shot counts, so moves tie on their
// times; and narrow rows packed with small characters admit a wide one
// only in place of two. With banded set, rows 0-1 serve regions 0-1, rows
// 2-3 serve regions 2-3, and rows 4-5 stay open.
func swapInstance(rng *rand.Rand, banded bool) *core.Instance {
	const nr = 5
	in := &core.Instance{
		Name: "swap", Kind: core.OneD,
		StencilWidth: 150, StencilHeight: 6 * 40,
		NumRegions: nr, RowHeight: 40,
	}
	shapes := [][3]int{{20, 3, 4}, {30, 6, 5}, {48, 2, 9}}
	shots := []int{2, 3, 6}
	n := 50 + rng.Intn(60)
	for i := 0; i < n; i++ {
		sh := shapes[rng.Intn(len(shapes))]
		c := core.Character{
			ID: i, Width: sh[0], Height: 40, BlankLeft: sh[1], BlankRight: sh[2],
			VSBShots: shots[rng.Intn(len(shots))],
			Repeats:  make([]int64, nr),
		}
		for r := 1; r < nr; r++ {
			if rng.Intn(2) == 0 {
				c.Repeats[r] = int64(1 + rng.Intn(4))
			}
		}
		c.Repeats[1] *= 2
		c.Repeats[0] = c.Repeats[1]
		in.Characters = append(in.Characters, c)
	}
	if banded {
		in.RowGroups = []core.RowGroup{
			{Rows: []int{0, 1}, Regions: []int{0, 1}},
			{Rows: []int{2, 3}, Regions: []int{2, 3}},
		}
	}
	return in
}

// TestPostSwapMatchesReference runs postSwap and the full-scan reference
// from the same pre-post-swap state (rounding, convergence and row
// refinement done) and requires the same rows, selection and region times.
// The generated instances are tie-heavy (see swapInstance) and half of
// them banded; the plan1d-shaped instances add the service's shape. The
// reference's move counts show that one-for-two moves, moves that only
// lower the total under a tied maximum, and candidates absent from the hot
// region all occur.
func TestPostSwapMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var ins []*core.Instance
	for k := 0; k < 60; k++ {
		ins = append(ins, swapInstance(rng, k%2 == 1))
	}
	if !testing.Short() {
		ins = append(ins, plan1dInstances()...)
	}
	var st swapStats
	for k, in := range ins {
		if err := in.Validate(); err != nil {
			t.Fatalf("instance %d: %v", k, err)
		}
		prepare := func() *solver {
			opt := Defaults()
			opt.Workers = 1
			s, err := newSolver(context.Background(), in, opt)
			if err != nil {
				t.Fatal(err)
			}
			s.successiveRounding()
			s.fastConvergence()
			s.convergeTail()
			s.refineAllRows()
			return s
		}
		got, want := prepare(), prepare()
		got.postSwap()
		postSwapReference(want, &st)
		for j := range want.rows {
			g, w := &got.rows[j], &want.rows[j]
			if !reflect.DeepEqual(g.order, w.order) || g.width != w.width {
				t.Fatalf("instance %d, row %d: order %v width %d, reference %v width %d", k, j, g.order, g.width, w.order, w.width)
			}
		}
		if !reflect.DeepEqual(got.assigned, want.assigned) {
			t.Fatalf("instance %d: assignment %v, reference %v", k, got.assigned, want.assigned)
		}
		if !reflect.DeepEqual(got.times, want.times) {
			t.Fatalf("instance %d: region times %v, reference %v", k, got.times, want.times)
		}
	}
	t.Logf("reference moves: %+v", st)
	if st.oneForTwo == 0 || st.tiedMax == 0 || st.hotUnmoved == 0 {
		t.Errorf("the instances no longer exercise every case: %+v", st)
	}
}
