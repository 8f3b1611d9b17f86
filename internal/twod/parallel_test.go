package twod

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"eblow/internal/core"
	"eblow/internal/gen"
)

// Same seed, 1 worker vs several, with multi-start annealing: identical
// plan from the clustered flow. Run with -race to exercise the parallel
// restarts and the clustered-vs-shelf race. The served flow reads no
// option, so its plan must also stay the same across seeds and restarts.
func TestSolveDeterministicAcrossWorkerCounts(t *testing.T) {
	in := gen.Small(core.TwoD, 80, 2, 31)
	for _, flow := range flows {
		var ref *core.Solution
		for _, workers := range []int{1, 2, 8} {
			opt := Defaults()
			opt.Seed = 3
			opt.MoveBudget = 4000
			opt.Restarts = 3
			opt.Workers = workers
			if flow.name == "Solve" {
				opt.Seed, opt.Restarts = int64(workers), workers
			}
			sol, _, err := flow.solve(context.Background(), in, opt)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", flow.name, workers, err)
			}
			if err := sol.Validate(in); err != nil {
				t.Fatalf("%s workers=%d produced invalid solution: %v", flow.name, workers, err)
			}
			if ref == nil {
				ref = sol
				continue
			}
			if sol.WritingTime != ref.WritingTime {
				t.Errorf("%s workers=%d changed writing time: %d vs %d", flow.name, workers, sol.WritingTime, ref.WritingTime)
			}
			if !reflect.DeepEqual(sol.Selected, ref.Selected) || !reflect.DeepEqual(sol.Placements, ref.Placements) {
				t.Errorf("%s workers=%d changed the plan", flow.name, workers)
			}
		}
	}
}

// More restarts of the clustered flow can only improve the best-of
// selection on the exact evaluation, never regress it, because every
// restart is evaluated and the shelf fallback is always in the comparison.
func TestRestartsNeverRegress(t *testing.T) {
	in := gen.Small(core.TwoD, 60, 2, 7)
	base := Defaults()
	base.Seed = 1
	base.MoveBudget = 3000
	one, _, err := SolveClustered(context.Background(), in, base)
	if err != nil {
		t.Fatal(err)
	}
	multi := base
	multi.Restarts = 4
	many, _, err := SolveClustered(context.Background(), in, multi)
	if err != nil {
		t.Fatal(err)
	}
	if many.WritingTime > one.WritingTime {
		t.Errorf("4 restarts (T=%d) worse than 1 (T=%d)", many.WritingTime, one.WritingTime)
	}
}

// A deadline that expires during the clustered flow's annealing stage
// truncates the schedule: the solver returns the best legalised plan found
// so far rather than discarding finished work.
func TestDeadlineDuringAnnealReturnsBestSoFar(t *testing.T) {
	in := gen.Small(core.TwoD, 120, 2, 19)
	opt := Defaults()
	opt.Seed = 1
	opt.MoveBudget = 50_000_000 // would run for minutes uncut
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	sol, _, err := SolveClustered(ctx, in, opt)
	if err != nil {
		// Only tolerable if the deadline fired before annealing began
		// (pathologically slow machine).
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("unexpected error: %v", err)
		}
		t.Skipf("deadline fired before the annealing stage: %v", err)
	}
	if err := sol.Validate(in); err != nil {
		t.Fatalf("truncated solve returned an invalid plan: %v", err)
	}
}

func TestSolveCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in := gen.Small(core.TwoD, 50, 2, 5)
	for _, flow := range flows {
		start := time.Now()
		_, _, err := flow.solve(ctx, in, Defaults())
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: expected context.Canceled, got %v", flow.name, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("%s: cancelled solve took %s", flow.name, d)
		}
	}
}

// The clustered anneal's work counters are deterministic: the same seed
// gives the same Moves and Accepted at any worker count, and the pinned
// values catch an evaluator change that alters the annealing trajectory
// while leaving the final plan intact.
func TestAnnealCountersDeterministic(t *testing.T) {
	const wantMoves, wantAccepted = 9546, 2966
	in := gen.Small(core.TwoD, 80, 2, 31)
	for _, workers := range []int{1, 4} {
		opt := Defaults()
		opt.Seed = 3
		opt.Restarts = 3
		opt.Workers = workers
		_, st, err := SolveClustered(context.Background(), in, opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if st.Moves != wantMoves || st.Accepted != wantAccepted {
			t.Errorf("workers=%d: moves=%d accepted=%d, want %d and %d",
				workers, st.Moves, st.Accepted, wantMoves, wantAccepted)
		}
	}
}
