package exact

import (
	"context"
	"testing"
	"time"

	"eblow/internal/core"
	"eblow/internal/gen"
	"eblow/internal/ilp"
	"eblow/internal/oned"
)

// tiny1D builds a single-row instance small enough for the exact ILP.
func tiny1D(n int) *core.Instance {
	p := gen.Params{
		Name: "exact-tiny", Kind: core.OneD,
		NumChars: n, NumRegions: 1,
		StencilW: 150, StencilH: 40, RowHeight: 40,
		MinWidth: 40, MaxWidth: 40,
		MinBlank: 3, MaxBlank: 12,
		MinShots: 2, MaxShots: 30, ShotAreaUnit: 45,
		MaxRepeat: 10,
		Seed:      42,
	}
	return gen.Generate(p)
}

func TestSolve1DTinyOptimal(t *testing.T) {
	in := tiny1D(5)
	res, err := Solve1D(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal || res.Solution == nil {
		t.Fatalf("expected an optimal solution, got status %v", res.Status)
	}
	if err := res.Solution.Validate(in); err != nil {
		t.Fatalf("exact solution invalid: %v", err)
	}
	if res.BinaryVariables == 0 || res.Nodes == 0 {
		t.Error("suspicious solver statistics")
	}

	// The exact optimum must never be worse than the E-BLOW heuristic.
	heur, _, err := oned.Solve(context.Background(), in, oned.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if res.Solution.WritingTime > heur.WritingTime {
		t.Errorf("ILP writing time %d worse than heuristic %d", res.Solution.WritingTime, heur.WritingTime)
	}
}

// The caller's context deadline is the time limit of an exact search: it
// must cut a search too big to finish, and leave any incumbent valid.
func TestSolve1DRespectsTimeLimit(t *testing.T) {
	in := gen.Tiny1T(3) // 11 candidates: too big to finish in a few ms
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := Solve1D(ctx, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 20*time.Second {
		t.Errorf("time limit ignored: %v", time.Since(start))
	}
	if res.Status == ilp.Optimal && res.Solution == nil {
		t.Error("optimal status without a solution")
	}
	if res.Solution != nil {
		if err := res.Solution.Validate(in); err != nil {
			t.Errorf("incumbent invalid: %v", err)
		}
	}
}

func TestSolve2DTiny(t *testing.T) {
	p := gen.Params{
		Name: "exact-tiny2d", Kind: core.TwoD,
		NumChars: 4, NumRegions: 1,
		StencilW: 90, StencilH: 90,
		MinWidth: 40, MaxWidth: 40, MinHeight: 40, MaxHeight: 40,
		MinBlank: 3, MaxBlank: 10,
		MinShots: 2, MaxShots: 30, ShotAreaUnit: 45,
		MaxRepeat: 10,
		Seed:      7,
	}
	in := gen.Generate(p)
	res, err := Solve2D(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Solution == nil {
		t.Fatalf("no solution, status %v", res.Status)
	}
	if err := res.Solution.Validate(in); err != nil {
		t.Fatalf("exact 2D solution invalid: %v", err)
	}
	if res.Solution.NumSelected() == 0 {
		t.Error("exact 2D solver selected nothing")
	}
}

func TestSolveRejectsWrongKind(t *testing.T) {
	if _, err := Solve1D(context.Background(), gen.Small(core.TwoD, 5, 1, 1), Options{}); err == nil {
		t.Error("Solve1D accepted a 2D instance")
	}
	if _, err := Solve2D(context.Background(), gen.Small(core.OneD, 5, 1, 1), Options{}); err == nil {
		t.Error("Solve2D accepted a 1D instance")
	}
}

// The golden determinism contract of the parallel branch and bound, checked
// end-to-end through the formulation layer: Workers=1 and Workers=8 must
// return the identical status, objective and stencil plan (run under -race
// in CI).
func TestWorkersDeterminism1D(t *testing.T) {
	in := tiny1D(6)
	seq, err := Solve1D(context.Background(), in, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Solve1D(context.Background(), in, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	assertSameExact(t, in, seq, par)
}

func TestWorkersDeterminism2D(t *testing.T) {
	p := gen.Params{
		Name: "exact-det2d", Kind: core.TwoD,
		NumChars: 4, NumRegions: 1,
		StencilW: 90, StencilH: 90,
		MinWidth: 40, MaxWidth: 40, MinHeight: 40, MaxHeight: 40,
		MinBlank: 3, MaxBlank: 10,
		MinShots: 2, MaxShots: 30, ShotAreaUnit: 45,
		MaxRepeat: 10,
		Seed:      7,
	}
	in := gen.Generate(p)
	seq, err := Solve2D(context.Background(), in, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Solve2D(context.Background(), in, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	assertSameExact(t, in, seq, par)
}

// assertSameExact requires two exact results to carry the same status, the
// same writing time and the same character selection.
func assertSameExact(t *testing.T, in *core.Instance, a, b *Result) {
	t.Helper()
	if a.Status != b.Status {
		t.Fatalf("status differs across worker counts: %v vs %v", a.Status, b.Status)
	}
	if (a.Solution == nil) != (b.Solution == nil) {
		t.Fatalf("one worker count produced a plan, the other did not")
	}
	if a.Solution == nil {
		return
	}
	if err := a.Solution.Validate(in); err != nil {
		t.Fatalf("sequential plan invalid: %v", err)
	}
	if err := b.Solution.Validate(in); err != nil {
		t.Fatalf("parallel plan invalid: %v", err)
	}
	if a.Solution.WritingTime != b.Solution.WritingTime {
		t.Errorf("writing time differs: %d vs %d", a.Solution.WritingTime, b.Solution.WritingTime)
	}
	for i, sel := range a.Solution.Selected {
		if sel != b.Solution.Selected[i] {
			t.Errorf("selection of character %d differs across worker counts", i)
		}
	}
}
