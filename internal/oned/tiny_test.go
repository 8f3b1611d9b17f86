package oned

import (
	"math"
	"testing"

	"eblow/internal/core"
	"eblow/internal/gen"
)

// tinyOptimum returns the least writing time of any selection from a
// one-row instance that fits the row in some order. A Held–Karp DP over
// (subset, last character) gives every subset's narrowest order, with
// neighbours sharing min(BlankRight, BlankLeft), in n²·2ⁿ steps.
func tinyOptimum(in *core.Instance) int64 {
	n := len(in.Characters)
	const none = math.MaxInt
	// width[S*n+j] is the narrowest order of subset S that ends in j.
	width := make([]int, n<<n)
	for i := range width {
		width[i] = none
	}
	for j := range n {
		width[(1<<j)*n+j] = in.Characters[j].Width
	}
	sel := make([]bool, n)
	best := in.WritingTime(sel)
	for set := 1; set < 1<<n; set++ {
		narrowest := none
		for j := range n {
			w := width[set*n+j]
			if w == none {
				continue
			}
			narrowest = min(narrowest, w)
			a := &in.Characters[j]
			for k := range n {
				if set&(1<<k) != 0 {
					continue
				}
				b := &in.Characters[k]
				to := (set|1<<k)*n + k
				width[to] = min(width[to], w+b.Width-min(a.BlankRight, b.BlankLeft))
			}
		}
		if narrowest <= in.StencilWidth {
			for j := range sel {
				sel[j] = set&(1<<j) != 0
			}
			best = min(best, in.WritingTime(sel))
		}
	}
	return best
}

// TestTinyFamilyOptimum holds E-BLOW's plans on the Table 5 family 1T-1..5,
// one 200-wide row of 8 to 14 candidates, to the proven optimum. 1T-1's
// optimum of 49 is the one the exact ILP also proves. A plan below the
// optimum would be a validation bug; each family's gap is pinned, so a
// change that moves plan quality shows here. The 2D counterpart is
// TestTiny2TOptimumPinned (internal/twod), which holds the served 2D plan
// on 2T-1 at the ILP's proven optimum of 22.
func TestTinyFamilyOptimum(t *testing.T) {
	want := []struct{ optimum, eblow int64 }{
		{49, 49}, {67, 67}, {195, 195}, {182, 182}, {193, 215},
	}
	for i, w := range want {
		in := gen.Tiny1T(i + 1)
		if in.NumRows() != 1 {
			t.Fatalf("%s has %d rows; the oracle covers one", in.Name, in.NumRows())
		}
		opt := tinyOptimum(in)
		sol, _ := solveInstance(t, in, Defaults())
		if sol.WritingTime < opt {
			t.Errorf("%s: E-BLOW's plan T %d is below the optimum %d", in.Name, sol.WritingTime, opt)
		}
		if opt != w.optimum || sol.WritingTime != w.eblow {
			t.Errorf("%s: optimum %d, E-BLOW %d (gap %.1f%%); want %d, %d",
				in.Name, opt, sol.WritingTime, 100*(float64(sol.WritingTime)/float64(opt)-1), w.optimum, w.eblow)
		}
	}
}
