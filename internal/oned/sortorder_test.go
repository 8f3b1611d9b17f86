package oned

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"eblow/internal/core"
)

// refPruneInferior is pruneInferior with its sort written as sort.Slice and
// a less function on the states' widths, blanks and generation order, and
// with the full dominance scan that pruneInferior skips for a state whose
// blank exceeds every kept state's on that side.
func refPruneInferior(pack dpPacking, sols []dpState, limit int) []dpState {
	width := func(s dpState) int { return pack.width(s.key) }
	sort.Slice(sols, func(i, j int) bool {
		a, b := sols[i], sols[j]
		switch {
		case width(a) != width(b):
			return width(a) < width(b)
		case a.left != b.left:
			return a.left > b.left
		case a.right != b.right:
			return a.right > b.right
		case a.parent != b.parent:
			return a.parent < b.parent
		}
		return a.atLeft && !b.atLeft
	})
	kept := sols[:0]
	for _, s := range sols {
		dominated := false
		for _, k := range kept {
			if width(k) <= width(s) && k.left >= s.left && k.right >= s.right {
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

// TestPruneInferiorMatchesReference checks pruneInferior against
// refPruneInferior on random generations where most states tie on width
// and blanks, as the two insertions of one parent and the states of
// different parents do in a real row: with packed keys and with the
// width-only key of a row too wide to pack.
func TestPruneInferiorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 600; trial++ {
		n := rng.Intn(40)
		if trial%4 == 0 {
			n = 40 + rng.Intn(400)
		}
		pack := newPacking(2, 3)
		if trial%3 == 1 {
			pack = dpPacking{} // the unpacked key of an oversized row
		}
		sols := randomGeneration(rng, pack, n)
		limit := 1 + rng.Intn(n+1)
		if got, want := pruneInferior(slices.Clone(sols), limit), refPruneInferior(pack, slices.Clone(sols), limit); !slices.Equal(got, want) {
			t.Fatalf("trial %d: pruneInferior kept %v, reference %v", trial, got, want)
		}
	}
}

// randomGeneration returns n DP states as refineRow generates them, the
// left and then the right insertion of each parent in turn, with widths
// and blanks drawn from a few values so that most of them tie.
func randomGeneration(rng *rand.Rand, pack dpPacking, n int) []dpState {
	sols := make([]dpState, n)
	for i := range sols {
		sols[i] = pack.state(rng.Intn(4), rng.Intn(3), rng.Intn(3), int32(i/2), i%2 == 0)
	}
	return sols
}

// checkStrictOrder fails the test unless cmp is a strict total order on
// elems: cmp(a, b) is 0 exactly when same(a, b) and has the opposite sign
// of cmp(b, a) for every pair, and a ≤ b ≤ c implies a ≤ c on sampled
// triples. Two shuffles of elems must then sort alike.
func checkStrictOrder[T any](t *testing.T, name string, rng *rand.Rand, elems []T, cmp func(a, b T) int, same func(a, b T) bool) {
	t.Helper()
	sign := func(a, b T) int { return max(-1, min(1, cmp(a, b))) }
	for _, a := range elems {
		for _, b := range elems {
			c := sign(a, b)
			if (c == 0) != same(a, b) {
				t.Fatalf("%s: cmp(%v, %v) = %d", name, a, b, c)
			}
			if sign(b, a) != -c {
				t.Fatalf("%s: cmp(%v, %v) = %d but cmp(%v, %v) = %d", name, a, b, c, b, a, sign(b, a))
			}
		}
	}
	if len(elems) == 0 {
		return
	}
	for range 20 * len(elems) {
		a, b, c := elems[rng.Intn(len(elems))], elems[rng.Intn(len(elems))], elems[rng.Intn(len(elems))]
		if sign(a, b) <= 0 && sign(b, c) <= 0 && sign(a, c) > 0 {
			t.Fatalf("%s: not transitive on %v ≤ %v ≤ %v", name, a, b, c)
		}
	}
	x, y := slices.Clone(elems), slices.Clone(elems)
	rng.Shuffle(len(x), func(i, j int) { x[i], x[j] = x[j], x[i] })
	slices.SortFunc(x, cmp)
	slices.SortFunc(y, cmp)
	for i := range x {
		if !same(x[i], y[i]) {
			t.Fatalf("%s: two shuffles sort to different orders at %d: %v and %v", name, i, x[i], y[i])
		}
	}
}

// TestStrictOrder checks that every comparator whose order decides a 1D
// plan is a strict total order, so no plan depends on how a sort places
// ties: compareRounding, compareProfit, compareStates and descending. The
// inputs are tie-heavy random ones, NaN keys included where the type
// allows them, and the rounding entries, profits and row-DP generations of
// a plan1d pool solve.
func TestStrictOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	keys := []float64{0.25, 0.5, 1, 2, math.NaN()}
	key := func() float64 { return keys[rng.Intn(len(keys))] }
	sameEntry := func(a, b roundingEntry) bool { return a.char == b.char && a.row == b.row }
	sameState := func(a, b dpState) bool { return a.parent == b.parent && a.atLeft == b.atLeft }
	sameFloat := func(a, b float64) bool { return a == b || math.IsNaN(a) && math.IsNaN(b) }
	sameID := func(a, b int) bool { return a == b }
	for trial := 0; trial < 40; trial++ {
		density := make([]float64, 6)
		for c := range density {
			density[c] = key()
		}
		var entries []roundingEntry
		for c := range density {
			for row := range 6 {
				if rng.Intn(3) > 0 {
					entries = append(entries, roundingEntry{char: c, row: row, value: key(), density: density[c]})
				}
			}
		}
		checkStrictOrder(t, "compareRounding", rng, entries, compareRounding, sameEntry)

		profits := make([]float64, 30)
		for i := range profits {
			profits[i] = key()
		}
		byProfit := func(a, b int) int { return compareProfit(profits, a, b) }
		checkStrictOrder(t, "compareProfit", rng, rng.Perm(len(profits)), byProfit, sameID)

		pack := newPacking(2, 3)
		if trial%2 == 1 {
			pack = dpPacking{}
		}
		checkStrictOrder(t, "compareStates", rng, randomGeneration(rng, pack, 2*rng.Intn(40)), compareStates, sameState)

		floats := make([]float64, 20)
		for i := range floats {
			floats[i] = key()
		}
		floats[0], floats[1] = math.Copysign(0, -1), 0
		checkStrictOrder(t, "descending", rng, floats, descending, sameFloat)
	}

	in := plan1dInstances()[0]
	s, err := newSolver(context.Background(), in, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	s.successiveRounding()
	if len(s.entries) == 0 {
		t.Fatal("the plan1d solve left no rounding entries")
	}
	checkStrictOrder(t, "compareRounding on a plan1d solve", rng, s.entries, compareRounding, sameEntry)
	s.fastConvergence()
	s.convergeTail()
	profits := s.currentProfits()
	byProfit := func(a, b int) int { return compareProfit(profits, a, b) }
	checkStrictOrder(t, "compareProfit on a plan1d solve", rng, rng.Perm(s.n), byProfit, sameID)
	twins := 0
	var w rowDP
	for j := range s.rows {
		for _, gen := range rowGenerations(&w, in, s.rows[j].chars) {
			checkStrictOrder(t, "compareStates on a plan1d row", rng, gen, compareStates, sameState)
			slices.SortFunc(gen, compareStates)
			for k := 1; k < len(gen); k++ {
				if gen[k].key == gen[k-1].key && gen[k].left == gen[k-1].left && gen[k].right == gen[k-1].right {
					twins++
				}
			}
		}
	}
	if twins == 0 {
		t.Fatal("no two states of the plan1d rows share width and blanks; the solve no longer exercises the tie-break")
	}
}

// rowGenerations returns every generation of states refineRow builds for a
// row of chars, before each is pruned.
func rowGenerations(w *rowDP, in *core.Instance, chars []int) [][]dpState {
	if len(chars) == 0 {
		return nil
	}
	sorted := w.sortByBlank(in, chars)
	pack := packingFor(in, sorted)
	first := &in.Characters[sorted[0]]
	solutions := []dpState{pack.state(first.Width, first.BlankLeft, first.BlankRight, -1, false)}
	var gens [][]dpState
	for _, id := range sorted[1:] {
		c := &in.Characters[id]
		var next []dpState
		for k, s := range solutions {
			width := pack.width(s.key)
			next = append(next,
				pack.state(width+c.Width-min(c.BlankRight, s.left), c.BlankLeft, s.right, int32(k), true),
				pack.state(width+c.Width-min(c.BlankLeft, s.right), s.left, c.BlankRight, int32(k), false))
		}
		gens = append(gens, slices.Clone(next))
		solutions = pruneInferior(next, pruneThreshold)
	}
	return gens
}

// TestRoundingQueueOrder checks that roundingQueue hands out exactly the
// compareRounding order of the whole input, for every prefix size k
// from 1 to past the input's length and for reads that stop before k, run
// past it or run out: on inputs where most (value, density) keys tie, on
// inputs with distinct keys, and with NaN densities. One queue serves
// every trial, as one serves a whole solve.
func TestRoundingQueueOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var q roundingQueue
	within, readPast := 0, 0
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		if trial%4 == 0 {
			n = 40 + rng.Intn(300)
		}
		key := func() float64 { return float64(1+rng.Intn(4)) / 4 }
		switch trial % 3 {
		case 1:
			key = func() float64 { return float64(1+rng.Intn(64*n)) / 64 }
		case 2:
			key = rng.Float64
		}
		entries := make([]roundingEntry, n)
		for i := range entries {
			entries[i] = roundingEntry{char: rng.Intn(n), row: i, value: key(), density: key()}
			if trial%10 == 0 && rng.Intn(16) == 0 {
				entries[i].density = math.NaN()
			}
		}
		want := slices.Clone(entries)
		slices.SortFunc(want, compareRounding)
		for k := 1; k <= n+1; k++ {
			reads := rng.Intn(n + 2)
			if k < n {
				if reads > k {
					readPast++
				} else {
					within++
				}
			}
			q.reset(slices.Clone(entries), k)
			for r := 0; r < reads; r++ {
				e, ok := q.next()
				if r == n {
					if ok {
						t.Fatalf("trial %d, k %d: read %d of %d entries returned row %d", trial, k, r+1, n, e.row)
					}
					break
				}
				if !ok || e.row != want[r].row {
					t.Fatalf("trial %d, k %d: read %d gave row %d (ok %v), full sort has row %d", trial, k, r, e.row, ok, want[r].row)
				}
			}
		}
	}
	if within == 0 || readPast == 0 {
		t.Fatalf("reads stayed within the selection in %d resets and read past it in %d; both paths must run", within, readPast)
	}
}
