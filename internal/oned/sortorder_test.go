package oned

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refPruneInferior is pruneInferior with its sort written as sort.Slice and
// a less function on the states' widths and blanks, the reference the typed
// sort on packed keys must reproduce.
func refPruneInferior(pack dpPacking, sols []dpState, limit int) []dpState {
	width := func(s dpState) int { return pack.width(s.key) }
	sort.Slice(sols, func(i, j int) bool {
		if width(sols[i]) != width(sols[j]) {
			return width(sols[i]) < width(sols[j])
		}
		if sols[i].left != sols[j].left {
			return sols[i].left > sols[j].left
		}
		return sols[i].right > sols[j].right
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

// TestSortTieOrder checks that the 1D flow's typed sorts leave elements
// with equal keys in the order sort.Slice leaves them under the equivalent
// less function, on random inputs where most keys tie: pruneInferior (the
// surviving state of a tie group is the first one sorted; the reference's
// full dominance scan also checks the scan pruneInferior skips for a state
// with a blank above every kept one), with packed keys and with the
// width-only key of a row too wide to pack, the
// successive-rounding entry order, and the descending float key the
// convergence-tail and candidate sorts use, NaN keys included. Lengths run from
// the insertion-sort range to well past pdqsort's pivot sampling, so every
// branch of the shared sort template runs.
func TestSortTieOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	keys := []float64{0.25, 0.5, 1, 2}
	key := func(withNaN bool) float64 {
		if withNaN && rng.Intn(8) == 0 {
			return math.NaN()
		}
		return keys[rng.Intn(len(keys))]
	}
	for trial := 0; trial < 600; trial++ {
		n := rng.Intn(40)
		if trial%4 == 0 {
			n = 40 + rng.Intn(400)
		}
		withNaN := trial%5 == 0

		pack := newPacking(2, 3)
		if trial%3 == 1 {
			pack = dpPacking{} // the unpacked key of an oversized row
		}
		sols := make([]dpState, n)
		for i := range sols {
			sols[i] = pack.state(rng.Intn(4), rng.Intn(3), rng.Intn(3), int32(i), rng.Intn(2) == 0)
		}
		limit := 1 + rng.Intn(n+1)
		if got, want := pruneInferior(slices.Clone(sols), limit), refPruneInferior(pack, slices.Clone(sols), limit); !slices.Equal(got, want) {
			t.Fatalf("trial %d: pruneInferior kept %v, sort.Slice reference %v", trial, got, want)
		}

		density := make([]float64, 16)
		for c := range density {
			density[c] = key(withNaN)
		}
		dens := func(c int) float64 { return density[c] }
		entries := make([]roundingEntry, n)
		for i := range entries {
			c := rng.Intn(len(density))
			entries[i] = roundingEntry{char: c, row: i, value: key(withNaN), density: density[c]}
		}
		got := slices.Clone(entries)
		sortRoundingEntries(got)
		want := slices.Clone(entries)
		sort.Slice(want, func(x, y int) bool {
			if want[x].value != want[y].value {
				return want[x].value > want[y].value
			}
			return dens(want[x].char) > dens(want[y].char)
		})
		if !slices.Equal(entryRows(got), entryRows(want)) {
			t.Fatalf("trial %d: rounding order %v, sort.Slice reference %v", trial, entryRows(got), entryRows(want))
		}

		got = slices.Clone(entries)
		slices.SortFunc(got, func(x, y roundingEntry) int { return descending(x.value, y.value) })
		want = slices.Clone(entries)
		sort.Slice(want, func(x, y int) bool { return want[x].value > want[y].value })
		if !slices.Equal(entryRows(got), entryRows(want)) {
			t.Fatalf("trial %d: descending order %v, sort.Slice reference %v", trial, entryRows(got), entryRows(want))
		}
	}
}

// entryRows lists the entries' row fields, which identify them in the test.
func entryRows(es []roundingEntry) []int {
	out := make([]int, len(es))
	for i, e := range es {
		out[i] = e.row
	}
	return out
}

// TestRoundingQueueOrder checks that roundingQueue hands out exactly the
// sortRoundingEntries order of the whole input, for every prefix size k
// from 1 to past the input's length and for reads that stop before k, run
// past it or run out: on inputs where most (value, density) keys tie
// (where the queue must fall back to the full sort), on inputs with
// distinct keys (where the selection stands), and with NaN densities. One
// queue serves every trial, as one serves a whole solve.
func TestRoundingQueueOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var q roundingQueue
	selected, readPast := 0, 0
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
			entries[i] = roundingEntry{char: i, row: i, value: key(), density: key()}
			if trial%10 == 0 && rng.Intn(16) == 0 {
				entries[i].density = math.NaN()
			}
		}
		want := slices.Clone(entries)
		sortRoundingEntries(want)
		for k := 1; k <= n+1; k++ {
			reads := rng.Intn(n + 2)
			q.reset(slices.Clone(entries), k)
			if !q.full {
				selected++
				if reads > k {
					readPast++
				}
			}
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
	if selected == 0 || readPast == 0 {
		t.Fatalf("the selection stood in %d resets and was read past in %d; both paths must run", selected, readPast)
	}
}
