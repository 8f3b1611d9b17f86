package oned

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"eblow/internal/core"
)

// rowInstance builds a single-row 1D instance from (width, blankL, blankR)
// triples for refinement tests.
func rowInstance(specs [][3]int, stencilW int) *core.Instance {
	in := &core.Instance{
		Name: "row", Kind: core.OneD,
		StencilWidth: stencilW, StencilHeight: 40,
		NumRegions: 1, RowHeight: 40,
	}
	for i, sp := range specs {
		in.Characters = append(in.Characters, core.Character{
			ID: i, Width: sp[0], Height: 40,
			BlankLeft: sp[1], BlankRight: sp[2],
			VSBShots: 2, Repeats: []int64{1},
		})
	}
	return in
}

func TestRefineRowSingleAndEmpty(t *testing.T) {
	in := rowInstance([][3]int{{40, 5, 5}}, 100)
	if got := refineRow(in, nil, 20); got != nil {
		t.Errorf("empty row refined to %v", got)
	}
	got := refineRow(in, []int{0}, 20)
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("single char order = %v", got)
	}
}

func TestRefineRowSymmetricMatchesLemma(t *testing.T) {
	// Symmetric blanks: the DP must achieve the Lemma 1 closed form.
	specs := [][3]int{{50, 8, 8}, {50, 3, 3}, {50, 6, 6}, {50, 1, 1}}
	in := rowInstance(specs, 1000)
	order := refineRow(in, []int{0, 1, 2, 3}, 20)
	width := core.MinRowLength(in, order)
	want := core.SymmetricRowLength([]int{50, 50, 50, 50}, []int{8, 3, 6, 1})
	if width != want {
		t.Errorf("refined width = %d, want %d (Lemma 1)", width, want)
	}
}

// bruteInsertionMin enumerates the 2^(n-1) left/right insertion orders over
// the blank-sorted sequence (the solution space Algorithm 3 explores).
func bruteInsertionMin(in *core.Instance, chars []int) int {
	sorted := append([]int(nil), chars...)
	// Same ordering rule as refineRow.
	for i := 0; i < len(sorted); i++ {
		for j := i + 1; j < len(sorted); j++ {
			si := in.Characters[sorted[i]].SymmetricHBlank()
			sj := in.Characters[sorted[j]].SymmetricHBlank()
			if sj > si || (sj == si && sorted[j] < sorted[i]) {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
	}
	n := len(sorted)
	best := -1
	for mask := 0; mask < 1<<uint(n-1); mask++ {
		order := []int{sorted[0]}
		for k := 1; k < n; k++ {
			if mask&(1<<uint(k-1)) != 0 {
				order = append([]int{sorted[k]}, order...)
			} else {
				order = append(order, sorted[k])
			}
		}
		w := core.MinRowLength(in, order)
		if best < 0 || w < best {
			best = w
		}
	}
	return best
}

// Property: with a large pruning threshold the DP finds the optimum over its
// insertion solution space, and with the default threshold it never does
// worse than the naive blank-sorted order. The quick source is pinned: the
// second property only holds for the naive order with the DP's own
// tie-break (see sortedByBlankOrder), and a fixed seed keeps the suite
// reproducible either way.
func TestRefineRowMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		specs := make([][3]int, n)
		for i := range specs {
			w := 30 + rng.Intn(30)
			specs[i] = [3]int{w, rng.Intn(12), rng.Intn(12)}
		}
		in := rowInstance(specs, 10000)
		chars := make([]int, n)
		for i := range chars {
			chars[i] = i
		}
		unpruned := refineRow(in, chars, 1<<12)
		if core.MinRowLength(in, unpruned) != bruteInsertionMin(in, chars) {
			return false
		}
		pruned := refineRow(in, chars, 20)
		sorted := core.MinRowLength(in, sortedByBlankOrder(in, chars))
		return core.MinRowLength(in, pruned) <= sorted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// sortedByBlankOrder returns characters ordered by decreasing symmetric
// blank, ties by ascending id — the same ordering rule refineRow uses, so
// this order is always inside the DP's insertion space (all-right
// insertions) and the DP can never do worse than it.
func sortedByBlankOrder(in *core.Instance, chars []int) []int {
	out := append([]int(nil), chars...)
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			si := in.Characters[out[i]].SymmetricHBlank()
			sj := in.Characters[out[j]].SymmetricHBlank()
			if sj > si || (sj == si && out[j] < out[i]) {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

func TestPositionsForOrderLegal(t *testing.T) {
	specs := [][3]int{{40, 5, 7}, {35, 3, 9}, {50, 10, 2}}
	in := rowInstance(specs, 200)
	order := []int{2, 0, 1}
	xs := positionsForOrder(in, order)
	if xs[0] != 0 {
		t.Errorf("first position %d", xs[0])
	}
	// 2 -> 0: overlap min(right of 2 = 2, left of 0 = 5) = 2: x = 50-2 = 48.
	if xs[1] != 48 {
		t.Errorf("xs[1] = %d, want 48", xs[1])
	}
	// 0 -> 1: overlap min(7, 3) = 3: x = 48 + 40 - 3 = 85.
	if xs[2] != 85 {
		t.Errorf("xs[2] = %d, want 85", xs[2])
	}

	sol := &core.Solution{
		Selected: []bool{true, true, true},
		Rows:     []core.Row{{Y: 0, Chars: order, X: xs}},
	}
	if err := sol.Validate(in); err != nil {
		t.Errorf("positionsForOrder produced an illegal row: %v", err)
	}
}

func TestPruneInferior(t *testing.T) {
	// parent tags each state so the test can tell which ones survived.
	sols := []dpState{
		{width: 100, left: 5, right: 5, parent: 0},
		{width: 100, left: 3, right: 3, parent: 1}, // dominated by the first
		{width: 90, left: 1, right: 1, parent: 2},  // narrower, kept
		{width: 120, left: 9, right: 9, parent: 3}, // wider but bigger blanks, kept
	}
	kept := pruneInferior(append([]dpState(nil), sols...), 10)
	if len(kept) != 3 {
		t.Fatalf("kept %d solutions, want 3", len(kept))
	}
	for _, k := range kept {
		if k.parent == 1 {
			t.Error("dominated solution survived pruning")
		}
	}
	limited := pruneInferior(append([]dpState(nil), sols...), 1)
	if len(limited) != 1 || limited[0].width != 90 {
		t.Errorf("limit should keep the narrowest solution, got %+v", limited)
	}
}

// partialOrder is the reference DP's state: it carries a copy of its whole
// order instead of a back pointer.
type partialOrder struct {
	width int
	left  int
	right int
	order []int
}

// refineRowReference is the order-copying form of Algorithm 3 that
// refineRow replaced: every state owns a copied order. It prunes with the
// same comparator and dominance rule, so the back-pointer DP must return
// exactly its order, ties included.
func refineRowReference(in *core.Instance, chars []int, pruneThreshold int) []int {
	if len(chars) == 0 {
		return nil
	}
	sorted := sortedByBlankOrder(in, chars)
	first := in.Characters[sorted[0]]
	solutions := []partialOrder{{
		width: first.Width,
		left:  first.BlankLeft,
		right: first.BlankRight,
		order: []int{sorted[0]},
	}}
	for _, id := range sorted[1:] {
		c := in.Characters[id]
		next := make([]partialOrder, 0, 2*len(solutions))
		for _, s := range solutions {
			next = append(next, partialOrder{
				width: s.width + c.Width - min(c.BlankRight, s.left),
				left:  c.BlankLeft,
				right: s.right,
				order: append([]int{id}, s.order...),
			})
			next = append(next, partialOrder{
				width: s.width + c.Width - min(c.BlankLeft, s.right),
				left:  s.left,
				right: c.BlankRight,
				order: append(append([]int(nil), s.order...), id),
			})
		}
		solutions = pruneInferiorReference(next, pruneThreshold)
	}
	best := solutions[0]
	for _, s := range solutions[1:] {
		if s.width < best.width {
			best = s
		}
	}
	return best.order
}

func pruneInferiorReference(sols []partialOrder, limit int) []partialOrder {
	sort.Slice(sols, func(i, j int) bool {
		if sols[i].width != sols[j].width {
			return sols[i].width < sols[j].width
		}
		if sols[i].left != sols[j].left {
			return sols[i].left > sols[j].left
		}
		return sols[i].right > sols[j].right
	})
	var kept []partialOrder
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

// Property: the back-pointer DP returns exactly the reference DP's order.
// Half the rows draw their characters from a handful of shapes, so many
// states tie on (width, left, right) and only the sort's tie order decides
// which one survives pruning; the thresholds range from cutting through
// those ties to the default (20) and an effectively unbounded one.
func TestRefineRowMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shape := func() [3]int { return [3]int{28 + rng.Intn(20), rng.Intn(14), rng.Intn(14)} }
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(24)
		tied := trial%2 == 0
		shapes := make([][3]int, 2+rng.Intn(5))
		for k := range shapes {
			shapes[k] = shape()
		}
		specs := make([][3]int, n)
		for i := range specs {
			if tied {
				specs[i] = shapes[rng.Intn(len(shapes))]
			} else {
				specs[i] = shape()
			}
		}
		in := rowInstance(specs, 100000)
		chars := rng.Perm(n)
		for _, limit := range []int{1, 2, 3, 5, 20, 1 << 12} {
			got := refineRow(in, chars, limit)
			want := refineRowReference(in, chars, limit)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, limit %d (tied=%v): refineRow = %v, reference = %v",
					trial, limit, tied, got, want)
			}
		}
	}
}
