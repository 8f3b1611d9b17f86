package twod

import (
	"context"
	"testing"
	"testing/quick"

	"eblow/internal/core"
	"eblow/internal/gen"
)

func TestSolveSmall2D(t *testing.T) {
	in := gen.Small(core.TwoD, 60, 2, 5)
	empty := in.WritingTime(make([]bool, in.NumCharacters()))
	for _, flow := range flows {
		sol, stats, err := flow.solve(context.Background(), in, Defaults())
		if err != nil {
			t.Fatal(err)
		}
		if err := sol.Validate(in); err != nil {
			t.Fatalf("%s: invalid solution: %v", flow.name, err)
		}
		if sol.NumSelected() == 0 {
			t.Errorf("%s: nothing selected", flow.name)
		}
		// Only the clustered flow clusters.
		if stats.Candidates != 60 || stats.AfterFilter == 0 || (stats.Clusters == 0) != (flow.name == "Solve") {
			t.Errorf("%s: odd stats: %+v", flow.name, stats)
		}
		if sol.WritingTime >= empty {
			t.Errorf("%s: no improvement over pure VSB: %d >= %d", flow.name, sol.WritingTime, empty)
		}
		if sol.Algorithm != "E-BLOW-2D" {
			t.Errorf("%s: algorithm %q", flow.name, sol.Algorithm)
		}
	}
}

// flows are the two 2D planners: the served shelf and the paper's
// clustered anneal.
var flows = []struct {
	name  string
	solve func(context.Context, *core.Instance, Options) (*core.Solution, *Stats, error)
}{{"Solve", Solve}, {"SolveClustered", SolveClustered}}

func TestSolveRejectsBadInput(t *testing.T) {
	in1d := gen.Small(core.OneD, 20, 1, 3)
	for _, flow := range flows {
		if _, _, err := flow.solve(context.Background(), &core.Instance{}, Defaults()); err == nil {
			t.Errorf("%s: empty instance accepted", flow.name)
		}
		if _, _, err := flow.solve(context.Background(), in1d, Defaults()); err == nil {
			t.Errorf("%s: 1D instance accepted by 2D planner", flow.name)
		}
	}
}

func TestClusteringReducesBlockCount(t *testing.T) {
	in := gen.Small(core.TwoD, 120, 2, 9)
	profits := in.StaticProfits()
	ids := candidateIDs(in, nil)
	reds := make([][]int64, in.NumCharacters())
	for _, id := range ids {
		reds[id] = make([]int64, in.NumRegions)
		for c := range reds[id] {
			reds[id][c] = in.Reduction(id, c)
		}
	}
	with := buildClusters(in, ids, profits, reds, similarityBound, maxClusterMembers)
	// One member per cluster leaves every candidate a singleton.
	without := buildClusters(in, ids, profits, reds, similarityBound, 1)
	if len(without) != len(ids) {
		t.Fatalf("singleton clustering built %d blocks from %d candidates", len(without), len(ids))
	}
	if len(with) >= len(without) {
		t.Errorf("clustering did not reduce block count: %d vs %d", len(with), len(without))
	}
}

func TestPreFilterLimitsCandidates(t *testing.T) {
	in := gen.Small(core.TwoD, 200, 2, 13)
	profits := in.StaticProfits()
	ids := candidateIDs(in, nil)
	if kept := preFilter(in, ids, profits, 0.5); len(kept) >= len(ids) {
		t.Errorf("pre-filter kept all %d of %d candidates", len(kept), len(ids))
	}
	if kept := preFilter(in, ids, profits, 1e9); len(kept) != len(ids) {
		t.Errorf("an unbounded pre-filter kept %d of %d candidates", len(kept), len(ids))
	}
}

func TestSimilarRespectsBound(t *testing.T) {
	in := &core.Instance{
		Kind: core.TwoD, StencilWidth: 500, StencilHeight: 500, NumRegions: 1,
		Characters: []core.Character{
			{ID: 0, Width: 40, Height: 40, BlankLeft: 5, BlankRight: 5, BlankTop: 5, BlankBottom: 5, VSBShots: 10, Repeats: []int64{10}},
			{ID: 1, Width: 42, Height: 41, BlankLeft: 5, BlankRight: 5, BlankTop: 4, BlankBottom: 5, VSBShots: 10, Repeats: []int64{11}},
			{ID: 2, Width: 80, Height: 40, BlankLeft: 5, BlankRight: 5, BlankTop: 5, BlankBottom: 5, VSBShots: 10, Repeats: []int64{10}},
			{ID: 3, Width: 40, Height: 40, BlankLeft: 5, BlankRight: 5, BlankTop: 5, BlankBottom: 5, VSBShots: 10, Repeats: []int64{100}},
		},
	}
	profits := in.StaticProfits()
	if !similar(in, profits, 0, 1, 0.2) {
		t.Error("near-identical characters should be similar")
	}
	if similar(in, profits, 0, 2, 0.2) {
		t.Error("characters with very different widths should not be similar")
	}
	if similar(in, profits, 0, 3, 0.2) {
		t.Error("characters with very different profits should not be similar")
	}
}

func TestAbsorbKeepsMemberGeometryLegal(t *testing.T) {
	in := &core.Instance{
		Kind: core.TwoD, StencilWidth: 1000, StencilHeight: 1000, NumRegions: 2,
	}
	for i := 0; i < 3; i++ {
		in.Characters = append(in.Characters, core.Character{
			ID: i, Width: 40, Height: 42, BlankLeft: 5, BlankRight: 6, BlankTop: 4, BlankBottom: 5,
			VSBShots: 9, Repeats: []int64{int64(3 + i), int64(2 * i)},
		})
	}
	profits := in.StaticProfits()
	reds := make([][]int64, in.NumCharacters())
	for id := range reds {
		r := make([]int64, in.NumRegions)
		for c := range r {
			r[c] = in.Reduction(id, c)
		}
		reds[id] = r
	}
	cl := singletonCluster(in, profits, reds, 0)
	if !absorb(in, profits, reds, &cl, 1) || !absorb(in, profits, reds, &cl, 2) {
		t.Fatal("merging identical characters must succeed")
	}
	if len(cl.members) != 3 || len(cl.offsets) != 3 {
		t.Fatalf("cluster bookkeeping wrong: %+v", cl)
	}
	// Members placed at their offsets (cluster at the origin) must form a
	// legal 2D placement.
	sol := &core.Solution{Selected: make([]bool, in.NumCharacters())}
	for mi, id := range cl.members {
		sol.Selected[id] = true
		sol.Placements = append(sol.Placements, core.Placement{Char: id, X: cl.offsets[mi][0], Y: cl.offsets[mi][1]})
	}
	if err := sol.Validate(in); err != nil {
		t.Errorf("cluster members overlap illegally: %v", err)
	}
	// Cluster reductions must be the sum of member reductions.
	for r := 0; r < in.NumRegions; r++ {
		var want int64
		for _, id := range cl.members {
			want += in.Reduction(id, r)
		}
		if cl.reds[r] != want {
			t.Errorf("cluster reductions wrong in region %d", r)
		}
	}
}

// Property: solutions are always valid and never worse than the empty
// stencil, across random small instances.
func TestSolveAlwaysValid(t *testing.T) {
	f := func(seed int64) bool {
		in := gen.Small(core.TwoD, 40, 3, seed)
		opt := Defaults()
		opt.MoveBudget = 3000
		opt.Seed = seed
		for _, flow := range flows {
			sol, _, err := flow.solve(context.Background(), in, opt)
			if err != nil || sol.Validate(in) != nil {
				return false
			}
			if sol.WritingTime > in.WritingTime(make([]bool, in.NumCharacters())) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
