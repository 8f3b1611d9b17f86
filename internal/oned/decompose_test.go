package oned

import (
	"context"
	"math/rand"
	"testing"

	"eblow/internal/core"
)

// groupedInstance builds a 1D MCC instance whose characters each repeat in
// one region (or bridge into the next region every bridgeEvery characters),
// together with row groups that pin rowsPerGroup stencil rows to every
// region — the per-column-cell stencil band layout that makes the
// relaxation's capacity matrix block-diagonal.
func groupedInstance(nChars, nGroups, rowsPerGroup, bridgeEvery int, seed int64) (*core.Instance, []core.RowGroup) {
	rng := rand.New(rand.NewSource(seed))
	in := &core.Instance{
		Name: "grouped", Kind: core.OneD,
		StencilWidth:  600,
		StencilHeight: 40 * nGroups * rowsPerGroup,
		NumRegions:    nGroups,
		RowHeight:     40,
	}
	for i := 0; i < nChars; i++ {
		c := core.Character{
			ID:    i,
			Width: 30 + rng.Intn(30), Height: 40,
			BlankLeft: 3 + rng.Intn(8), BlankRight: 3 + rng.Intn(8),
			VSBShots: 2 + rng.Intn(30),
			Repeats:  make([]int64, nGroups),
		}
		g := i % nGroups
		c.Repeats[g] = int64(1 + rng.Intn(20))
		if bridgeEvery > 0 && i%bridgeEvery == 0 {
			c.Repeats[(g+1)%nGroups] = int64(1 + rng.Intn(20))
		}
		in.Characters = append(in.Characters, c)
	}
	groups := make([]core.RowGroup, nGroups)
	for g := range groups {
		for r := 0; r < rowsPerGroup; r++ {
			groups[g].Rows = append(groups[g].Rows, g*rowsPerGroup+r)
		}
		groups[g].Regions = []int{g}
	}
	return in, groups
}

// withBands returns a shallow copy of the instance carrying the row groups.
func withBands(in *core.Instance, groups []core.RowGroup) *core.Instance {
	banded := *in
	banded.RowGroups = groups
	return &banded
}

// relaxSolver builds a solver mid-flight: row groups installed, profits
// evaluated, and a few characters pre-assigned so the row capacities are
// uneven the way they are in later rounding iterations.
func relaxSolver(t testing.TB, in *core.Instance, groups []core.RowGroup, workers, preAssign int) (*solver, []int, []float64) {
	t.Helper()
	opt := Defaults()
	opt.Workers = workers
	s, err := newSolver(context.Background(), withBands(in, groups), opt)
	if err != nil {
		t.Fatal(err)
	}
	assigned := 0
	for i := 0; i < s.n && assigned < preAssign; i++ {
		for j := 0; j < s.m; j++ {
			if s.fits(i, j) {
				s.assign(i, j)
				assigned++
				break
			}
		}
	}
	s.currentProfits()
	unsolved := s.unsolvedIDs(nil)
	caps := s.rowCapacities()
	return s, unsolved, caps
}

// sameMatrix compares two flat relaxation matrices of m columns.
func sameMatrix(t *testing.T, label string, m int, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d entries", label, len(a), len(b))
	}
	for k := range a {
		if a[k] != b[k] {
			t.Fatalf("%s: a[%d][%d] = %v vs %v (not bit-identical)", label, k/m, k%m, a[k], b[k])
		}
	}
}

// TestRelaxBlocksDetection checks the union-find block structure: disjoint
// region populations split into one block per group, bridging characters
// merge their two groups, and without row groups everything is one block.
func TestRelaxBlocksDetection(t *testing.T) {
	in, groups := groupedInstance(60, 4, 2, 0, 1)
	s, unsolved, _ := relaxSolver(t, in, groups, 1, 0)
	blocks := s.relaxBlocks(unsolved)
	if len(blocks) != 4 {
		t.Fatalf("disjoint instance split into %d blocks, want 4", len(blocks))
	}
	for bi, b := range blocks {
		if len(b.rows) != 2 || len(b.chars) != 15 {
			t.Errorf("block %d has %d rows and %d chars, want 2 and 15", bi, len(b.rows), len(b.chars))
		}
		for _, k := range b.chars {
			for _, j := range b.rows {
				if !s.allowed(unsolved[k], j) {
					t.Errorf("block %d pairs char %d with row %d it may not use", bi, unsolved[k], j)
				}
			}
		}
	}

	// A character bridging every pair of adjacent groups chains all blocks
	// together.
	in2, groups2 := groupedInstance(60, 4, 2, 1, 2)
	s2, unsolved2, _ := relaxSolver(t, in2, groups2, 1, 0)
	if blocks := s2.relaxBlocks(unsolved2); len(blocks) != 1 {
		t.Fatalf("bridged instance split into %d blocks, want 1", len(blocks))
	}

	// No row groups: one block covering every character and row.
	s3, unsolved3, _ := relaxSolver(t, in, nil, 1, 0)
	blocks3 := s3.relaxBlocks(unsolved3)
	if len(blocks3) != 1 || len(blocks3[0].chars) != len(unsolved3) || len(blocks3[0].rows) != s3.m {
		t.Fatalf("ungrouped instance should be one full block, got %+v", blocks3)
	}
}

// TestBlockDecomposedDeterministicWorkers asserts the block-decomposed
// relaxation is bit-identical for every worker count, at MCC scale (4000
// characters, 10 column-cell bands).
func TestBlockDecomposedDeterministicWorkers(t *testing.T) {
	nChars := 4000
	if testing.Short() {
		nChars = 400
	}
	in, groups := groupedInstance(nChars, 10, 5, 11, 9)
	s1, unsolved1, caps1 := relaxSolver(t, in, groups, 1, 40)
	a1, err := s1.solveRelaxation(unsolved1, caps1)
	if err != nil {
		t.Fatal(err)
	}
	s8, unsolved8, caps8 := relaxSolver(t, in, groups, 8, 40)
	a8, err := s8.solveRelaxation(unsolved8, caps8)
	if err != nil {
		t.Fatal(err)
	}
	if len(unsolved1) != len(unsolved8) {
		t.Fatal("solver setup diverged between worker counts")
	}
	sameMatrix(t, "workers 1 vs 8", s1.m, a1, a8)
}

// TestRelaxationSkipsUnusableRows gives two rows to a group whose region no
// character repeats in. Every character lands in one block that covers the
// other rows only, and the structured relaxation must pool just those
// rows' capacities: the unusable rows stay empty, twice in a row on one
// solver's reused buffers.
func TestRelaxationSkipsUnusableRows(t *testing.T) {
	in, groups := groupedInstance(120, 2, 2, 1, 4)
	in.NumRegions++
	in.StencilHeight += 2 * in.RowHeight
	for i := range in.Characters {
		in.Characters[i].Repeats = append(in.Characters[i].Repeats, 0)
	}
	groups = append(groups, core.RowGroup{Rows: []int{4, 5}, Regions: []int{2}})
	s, unsolved, caps := relaxSolver(t, in, groups, 1, 0)
	if blocks := s.relaxBlocks(unsolved); len(blocks) != 1 || len(blocks[0].chars) != len(unsolved) || len(blocks[0].rows) != 4 {
		t.Fatalf("want one block of every character and rows 0-3, got %+v", blocks)
	}
	for pass := 0; pass < 2; pass++ {
		a, err := s.solveRelaxation(unsolved, caps)
		if err != nil {
			t.Fatal(err)
		}
		for k := range unsolved {
			if v := a[k*s.m+4] + a[k*s.m+5]; v != 0 {
				t.Fatalf("pass %d: character %d has %v on the unusable rows", pass, unsolved[k], v)
			}
		}
	}
}

// TestSolveWithRowGroups runs the full planner with row groups: the plan
// must be identical for every worker count, must only place characters on
// rows their group allows, and must stay valid.
func TestSolveWithRowGroups(t *testing.T) {
	plain, groups := groupedInstance(120, 4, 2, 13, 3)
	in := withBands(plain, groups)
	opt := Defaults()
	opt.Workers = 1
	ref, _, err := Solve(context.Background(), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Validate(in); err != nil {
		t.Fatalf("invalid solution: %v", err)
	}
	if ref.NumSelected() == 0 {
		t.Fatal("empty plan")
	}

	// Candidacy respected on every row.
	rowGroupOf := make([]int, in.NumRows())
	for j := range rowGroupOf {
		rowGroupOf[j] = -1
	}
	for g, grp := range groups {
		for _, j := range grp.Rows {
			rowGroupOf[j] = g
		}
	}
	for _, row := range ref.Rows {
		j := row.Y / in.RowHeight
		g := rowGroupOf[j]
		if g < 0 {
			continue
		}
		for _, c := range row.Chars {
			ok := false
			for _, r := range groups[g].Regions {
				if in.Characters[c].Repeats[r] > 0 {
					ok = true
					break
				}
			}
			if !ok {
				t.Errorf("character %d placed on row %d outside its groups", c, j)
			}
		}
	}

	opt.Workers = 8
	par, _, err := Solve(context.Background(), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	if par.WritingTime != ref.WritingTime || planHash(par) != planHash(ref) {
		t.Errorf("workers changed the plan: T=%d/%d, plan hash %#x/%#x",
			ref.WritingTime, par.WritingTime, planHash(ref), planHash(par))
	}
}
