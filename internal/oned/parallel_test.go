package oned

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"eblow/internal/core"
	"eblow/internal/gen"
)

// Same instance and options, 1 worker vs several: the planner must return
// the identical stencil plan (merges are by index order, never completion
// order). Run with -race to exercise the parallel row refinement.
func TestSolveDeterministicAcrossWorkerCounts(t *testing.T) {
	in := gen.Small(core.OneD, 140, 4, 17)
	var ref *core.Solution
	for _, workers := range []int{1, 2, 8} {
		opt := Defaults()
		opt.Workers = workers
		sol, _, err := Solve(context.Background(), in, opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := sol.Validate(in); err != nil {
			t.Fatalf("workers=%d produced invalid solution: %v", workers, err)
		}
		if ref == nil {
			ref = sol
			continue
		}
		if sol.WritingTime != ref.WritingTime {
			t.Errorf("workers=%d changed writing time: %d vs %d", workers, sol.WritingTime, ref.WritingTime)
		}
		if !reflect.DeepEqual(sol.Selected, ref.Selected) || !reflect.DeepEqual(sol.Rows, ref.Rows) {
			t.Errorf("workers=%d changed the plan", workers)
		}
	}
}

// 1M-7 is the largest paper family the planner solves in a test that
// -short keeps; its plan is pinned at 1 and 4 workers, also under -race,
// which CI's determinism step runs it with.
func TestMCCPlanPinnedAcrossWorkers(t *testing.T) {
	in, err := gen.ByName("1M-7")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		opt := Defaults()
		opt.Workers = workers
		sol, _, err := Solve(context.Background(), in, opt)
		if err != nil {
			t.Fatal(err)
		}
		if sol.WritingTime != 41587 {
			t.Errorf("%d workers: writing time %d, want 41587", workers, sol.WritingTime)
		}
		if h := planHash(sol); h != 0xdb2d6fb3f9bac3d {
			t.Errorf("%d workers: plan hash %#x, want 0xdb2d6fb3f9bac3d", workers, h)
		}
	}
}

// The solver keeps the per-region writing times current through assign and
// unassign, and evaluates per-character profits on the worker pool from
// them and its dense R_ic table; this guard fails if the table, the kept
// times or the profit formula ever diverge from the core ones. The solver
// comes from newSolver, the same constructor Solve uses, so the table
// cannot be bypassed.
func TestParallelEvaluationMatchesCore(t *testing.T) {
	in := gen.Small(core.OneD, 90, 7, 41)
	s, err := newSolver(context.Background(), in, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.red) != s.n*in.NumRegions {
		t.Fatalf("R table has %d entries, want %d", len(s.red), s.n*in.NumRegions)
	}
	for i := 0; i < s.n; i++ {
		for c := 0; c < in.NumRegions; c++ {
			if got, want := s.red[i*s.nr+c], in.Reduction(i, c); got != want {
				t.Fatalf("red[%d*R+%d] = %d, want Reduction = %d", i, c, got, want)
			}
		}
	}
	// A deterministic mixed selection: every third character on a row,
	// then every ninth taken off again.
	for i := 0; i < s.n; i += 3 {
		s.assign(i, (i/3)%s.m)
	}
	for i := 0; i < s.n; i += 9 {
		s.unassign(i)
	}
	wantTimes := in.RegionTimes(s.selection())
	if !reflect.DeepEqual(s.times, wantTimes) {
		t.Errorf("kept region times diverged from core.RegionTimes:\n got %v\nwant %v", s.times, wantTimes)
	}
	wantProfits := in.Profits(wantTimes)
	gotProfits := s.currentProfits()
	if !reflect.DeepEqual(gotProfits, wantProfits) {
		t.Error("currentProfits diverged from core.Profits")
	}
}

// The kept region times match core.Instance.RegionTimes after every stage
// that moves characters, at four workers: successive rounding, the row
// refinement whose evictions run on the worker pool and are applied after
// it, post-swap and post-insertion. The first plan1d-shaped instance
// has the refinement evict characters.
func TestParallelStagesKeepRegionTimes(t *testing.T) {
	in := plan1dInstances()[0]
	opt := Defaults()
	opt.Workers = 4
	s, err := newSolver(context.Background(), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		if want := in.RegionTimes(s.selection()); !reflect.DeepEqual(s.times, want) {
			t.Errorf("after %s: kept region times %v, core.RegionTimes %v", stage, s.times, want)
		}
	}
	s.successiveRounding()
	check("successive rounding")
	s.fastConvergence()
	s.convergeTail()
	check("fast convergence")
	before := countSelected(s)
	s.refineAllRows()
	if countSelected(s) >= before {
		t.Fatalf("refineAllRows evicted nothing (%d selected before and after); the instance no longer exercises evictions", before)
	}
	check("refineAllRows evictions")
	s.postSwap()
	check("post-swap")
	s.postInsert()
	check("post-insert")
}

// countSelected returns how many characters are on the stencil.
func countSelected(s *solver) int {
	n := 0
	for _, j := range s.assigned {
		if j >= 0 {
			n++
		}
	}
	return n
}

func TestSolveCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in := gen.Small(core.OneD, 80, 2, 5)
	start := time.Now()
	_, _, err := Solve(ctx, in, Defaults())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("cancelled solve took %s", d)
	}
}

func TestSolveDeadlineMidRun(t *testing.T) {
	in := gen.Small(core.OneD, 200, 6, 23)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, _, err := Solve(ctx, in, Defaults())
	// Either the deadline fired at a checkpoint (expected on any normal
	// machine) or the tiny instance finished first; both are legal, but an
	// unrelated error is not.
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("unexpected error: %v", err)
	}
}
