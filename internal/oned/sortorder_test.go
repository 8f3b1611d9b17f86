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
// surviving state of a tie group is the first one sorted), with packed
// keys and with the width-only key of a row too wide to pack, the
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
