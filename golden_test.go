package eblow

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"eblow/internal/floorsa"
	"eblow/internal/gen"
	"eblow/internal/oned"
	"eblow/internal/pack2d"
)

// Golden regression anchors: one small deterministic instance per benchmark
// family, solved with the default E-BLOW planner. The committed values pin
// the solver's solution quality — a refactor that silently degrades (or
// accidentally changes) the planner breaks this test instead of slipping
// through. If a deliberate algorithm change moves a value, re-derive it with
// `go test -run TestGoldenObjectives -v` and update the table in the same
// commit that changes the algorithm.
//
// Every family also pins its full layout: the 1D families their rows
// (layoutDigest), the 2D families their placements (placementDigest).
// Writing time and selected count cannot see a change to a row's character
// order or to a character's position, which a pure performance change must
// leave bit-identical.
//
// The work column pins deterministic effort counts that a plan-preserving
// change can still move (workCounts): the served 1D planner's fast-ILP
// binaries and branch-and-bound pivots at one worker, the simplex
// relaxation backend's solves and pivots, and the 2D annealer's moves.
// Their timings are the go test benchmarks BenchmarkSolvePlan1D,
// BenchmarkRelaxationDecomposed, BenchmarkWarmNodeSolve,
// BenchmarkMoveIncremental and BenchmarkAnnealIncremental.
func TestGoldenObjectives(t *testing.T) {
	golden := map[string]struct {
		writingTime int64
		selected    int
		layout      string
		work        string
	}{
		"1D": {writingTime: 2540, selected: 117, layout: "127ae73ee058815a", work: "fastILP=3/6 simplex=7/1058"},
		"1M": {writingTime: 1590, selected: 114, layout: "1cb0a38d16c38b4b", work: "fastILP=12/36 simplex=7/1023"},
		"2D": {writingTime: 2552, selected: 102, layout: "6023f74b59dfcca6", work: "moves=5160"},
		"2M": {writingTime: 1246, selected: 108, layout: "dbecc62a737c0638", work: "moves=5160"},
		"1T": {writingTime: 49, selected: 6, layout: "b866368912780def", work: "fastILP=1/2 simplex=2/8"},
		"2T": {writingTime: 32, selected: 5, layout: "f20b7a60751faaff", work: "moves=860"},
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
			got := placementDigest(sol)
			if in.Kind == OneD {
				got = layoutDigest(sol)
			}
			t.Logf("%s: layout=%s", family, got)
			if got != want.layout {
				t.Errorf("layout drifted: got %s, golden %s", got, want.layout)
			}
			work := workCounts(t, in)
			t.Logf("%s: work=%s", family, work)
			if work != want.work {
				t.Errorf("work counts drifted: got %s, golden %s", work, want.work)
			}
		})
	}
}

// workCounts renders the deterministic effort of planning in. A 1D instance
// is solved twice at one worker (fast-ILP pivots depend on timing at more):
// as served, reporting the fast-convergence ILP's binaries and node pivots,
// and with the simplex relaxation backend, reporting its LP solves and
// pivots. A 2D instance is annealed whole by floorsa with seed 1, one
// restart and a budget of 40 moves per character, reporting the moves made.
func workCounts(t *testing.T, in *Instance) string {
	t.Helper()
	if in.Kind == OneD {
		opt := oned.Defaults()
		opt.Workers = 1
		opt.ILPTimeLimit = 10 * time.Minute
		_, served, err := oned.Solve(context.Background(), in, opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.Backend = oned.SimplexLP
		_, simplex, err := oned.Solve(context.Background(), in, opt)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("fastILP=%d/%d simplex=%d/%d", served.FastILPVariables, served.FastILPPivots,
			simplex.RelaxSolves, simplex.RelaxPivots)
	}
	blocks := make([]floorsa.Block, in.NumCharacters())
	for i, c := range in.Characters {
		reds := make([]int64, in.NumRegions)
		for r := range reds {
			reds[r] = in.Reduction(i, r)
		}
		blocks[i] = floorsa.Block{
			Block: pack2d.Block{
				W: c.Width, H: c.Height,
				BlankL: c.BlankLeft, BlankR: c.BlankRight,
				BlankT: c.BlankTop, BlankB: c.BlankBottom,
			},
			Reductions: reds,
		}
	}
	res := floorsa.Pack(context.Background(), blocks, in.VSBTime(), in.StencilWidth, in.StencilHeight,
		floorsa.Options{Seed: 1, MoveBudget: 40 * in.NumCharacters(), Restarts: 1})
	return fmt.Sprintf("moves=%d", res.Moves)
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

// placementDigest hashes a 2D plan's placements in order: each placement's
// character, X and Y.
func placementDigest(sol *Solution) string {
	h := fnv.New64a()
	for _, p := range sol.Placements {
		fmt.Fprintf(h, "%d,%d,%d;", p.Char, p.X, p.Y)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
