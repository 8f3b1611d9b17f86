package oned

import (
	"fmt"
	"testing"

	"eblow/internal/core"
	"eblow/internal/gen"
)

// samePlan fails unless the two solutions select the same characters into
// the same rows with the same writing time — the planner-level notion of
// bit-identical.
func samePlan(t *testing.T, a, b *core.Solution, label string) {
	t.Helper()
	if a.WritingTime != b.WritingTime {
		t.Errorf("%s: writing time %d vs %d", label, a.WritingTime, b.WritingTime)
	}
	if len(a.Selected) != len(b.Selected) {
		t.Fatalf("%s: selection lengths differ", label)
	}
	for i := range a.Selected {
		if a.Selected[i] != b.Selected[i] {
			t.Errorf("%s: selection differs at character %d", label, i)
		}
	}
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("%s: row counts differ", label)
	}
	for j := range a.Rows {
		ra, rb := a.Rows[j].Chars, b.Rows[j].Chars
		if len(ra) != len(rb) {
			t.Errorf("%s: row %d lengths differ", label, j)
			continue
		}
		for k := range ra {
			if ra[k] != rb[k] {
				t.Errorf("%s: row %d slot %d: char %d vs %d", label, j, k, ra[k], rb[k])
			}
		}
	}
}

// TestSimplexWorkersIdentical is the planner-level determinism gate for the
// SimplexLP backend (run under -race in CI): the plan is bit-identical at
// every worker count. The pinned writing times are the plans of the cold
// block solves; they catch any change to the relaxation or the rounding.
func TestSimplexWorkersIdentical(t *testing.T) {
	for _, tc := range []struct {
		seed        int64
		writingTime int64
	}{{3, 692}, {17, 765}} {
		in := gen.Small(core.OneD, 70, 3, tc.seed)
		o := Defaults()
		o.Backend = SimplexLP
		o.Workers = 1
		ref, _ := solveInstance(t, in, o)
		if ref.WritingTime != tc.writingTime {
			t.Errorf("seed %d: writing time %d, want %d", tc.seed, ref.WritingTime, tc.writingTime)
		}
		for _, workers := range []int{4, 8} {
			o.Workers = workers
			sol, _ := solveInstance(t, in, o)
			samePlan(t, ref, sol, fmt.Sprintf("seed %d workers %d", tc.seed, workers))
		}
	}
}
