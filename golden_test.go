package eblow

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"eblow/internal/gen"
)

// Golden regression anchors: one small deterministic instance per benchmark
// family, solved with the default E-BLOW planner. The committed values pin
// the solver's solution quality — a refactor that silently degrades (or
// accidentally changes) the planner breaks this test instead of slipping
// through. If a deliberate algorithm change moves a value, re-derive it with
// `go test -run TestGoldenObjectives -v` and update the table in the same
// commit that changes the algorithm.
//
// The 1D families also pin the full row layout (layoutDigest): writing time
// and selected count cannot see a change to a row's character order or x
// positions, which a pure performance change must leave bit-identical.
func TestGoldenObjectives(t *testing.T) {
	golden := map[string]struct {
		writingTime int64
		selected    int
		layout      string
	}{
		"1D": {writingTime: 2540, selected: 117, layout: "127ae73ee058815a"},
		"1M": {writingTime: 1590, selected: 114, layout: "1cb0a38d16c38b4b"},
		"2D": {writingTime: 2552, selected: 102},
		"2M": {writingTime: 1246, selected: 108},
		"1T": {writingTime: 49, selected: 6, layout: "b866368912780def"},
		"2T": {writingTime: 32, selected: 5},
	}

	for _, family := range []string{"1D", "1M", "2D", "2M", "1T", "2T"} {
		family := family
		t.Run(family, func(t *testing.T) {
			in, err := gen.SmallFamily(family)
			if err != nil {
				t.Fatal(err)
			}
			var p Params
			if in.Kind == OneD {
				opt := Defaults1D()
				// The fast-convergence ILP normally carries a 2s wall-clock
				// limit; on these tiny instances it finishes in milliseconds,
				// but a generous limit makes the anchor immune to a heavily
				// loaded CI machine truncating the search differently.
				opt.ILPTimeLimit = 10 * time.Minute
				p.Options1D = &opt
			} else {
				opt := Defaults2D()
				opt.Seed = 1
				p.Options2D = &opt
			}
			res, err := SolveWith(context.Background(), in, p)
			if err != nil {
				t.Fatal(err)
			}
			sol := res.Solution
			if err := sol.Validate(in); err != nil {
				t.Fatalf("invalid solution: %v", err)
			}
			want := golden[family]
			t.Logf("%s: writingTime=%d selected=%d", family, sol.WritingTime, sol.NumSelected())
			if sol.WritingTime != want.writingTime {
				t.Errorf("writing time drifted: got %d, golden %d", sol.WritingTime, want.writingTime)
			}
			if sol.NumSelected() != want.selected {
				t.Errorf("selected count drifted: got %d, golden %d", sol.NumSelected(), want.selected)
			}
			if want.layout != "" {
				got := layoutDigest(sol)
				t.Logf("%s: layout=%s", family, got)
				if got != want.layout {
					t.Errorf("row layout drifted: got %s, golden %s", got, want.layout)
				}
			}
		})
	}
}

// layoutDigest hashes a 1D plan's rows in order: each row's Y, its
// character order and every character's X.
func layoutDigest(sol *Solution) string {
	h := fnv.New64a()
	for _, r := range sol.Rows {
		fmt.Fprintf(h, "y=%d chars=%v x=%v;", r.Y, r.Chars, r.X)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
