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

// On 1M-7 the fast-convergence branch and bound runs out of its node
// budget. The budget counts dealt nodes, so the plan is pinned at every
// worker count and machine speed, also under -race, which slows the search
// several-fold the way a loaded machine does. Not skipped under -short: the
// determinism step of CI runs it with -race.
func TestFastILPBudgetPlanPinned(t *testing.T) {
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
		if sol.WritingTime != 41580 {
			t.Errorf("%d workers: writing time %d, want 41580", workers, sol.WritingTime)
		}
		if h := planHash(sol); h != 0xe8dce0198b9f5203 {
			t.Errorf("%d workers: plan hash %#x, want 0xe8dce0198b9f5203", workers, h)
		}
	}
}

// The solver's parallel per-region time and per-character profit
// evaluations re-implement the core formulas so each worker can own its
// indices, reading R_ic from the solver's dense table; this guard fails if
// the table or the two implementations ever diverge. The solver comes from
// newSolver, the same constructor Solve uses, so the table cannot be
// bypassed.
func TestParallelEvaluationMatchesCore(t *testing.T) {
	in := gen.Small(core.OneD, 90, 7, 41)
	s, err := newSolver(context.Background(), in, Defaults().withDefaults())
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
	for i := range s.assigned {
		// A deterministic mixed selection: every third character "on row 0".
		s.assigned[i] = -1
		if i%3 == 0 {
			s.assigned[i] = 0
		}
	}
	wantTimes := in.RegionTimes(s.selection())
	gotTimes := s.regionTimes()
	if !reflect.DeepEqual(gotTimes, wantTimes) {
		t.Errorf("regionTimes diverged from core.RegionTimes:\n got %v\nwant %v", gotTimes, wantTimes)
	}
	wantProfits := in.Profits(wantTimes)
	gotProfits := s.currentProfits(nil)
	if !reflect.DeepEqual(gotProfits, wantProfits) {
		t.Error("currentProfits diverged from core.Profits")
	}
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
