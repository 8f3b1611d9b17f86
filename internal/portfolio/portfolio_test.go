package portfolio

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"eblow/internal/core"
	"eblow/internal/gen"
	"eblow/internal/solver"
)

func TestRace1D(t *testing.T) {
	in := gen.Small(core.OneD, 60, 3, 11)
	res, err := solver.Solve(context.Background(), "portfolio", in, solver.Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Solution == nil || res.Strategy == "" {
		t.Fatal("race produced no winner")
	}
	if err := res.Solution.Validate(in); err != nil {
		t.Fatalf("winning plan invalid: %v", err)
	}
	if len(res.Runs) != len(solver.RacingNames(core.OneD)) {
		t.Fatalf("expected %d runs, got %d", len(solver.RacingNames(core.OneD)), len(res.Runs))
	}
	// The winner must be at least as good as every finished entrant.
	for _, r := range res.Runs {
		if r.Solution != nil && r.Solution.WritingTime < res.Solution.WritingTime {
			t.Errorf("%s (T=%d) beat the declared winner %s (T=%d)",
				r.Name, r.Solution.WritingTime, res.Strategy, res.Solution.WritingTime)
		}
	}
}

func TestRace2D(t *testing.T) {
	in := gen.Small(core.TwoD, 40, 2, 12)
	res, err := solver.Solve(context.Background(), "portfolio", in, solver.Params{Seed: 1, Restarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Solution.Validate(in); err != nil {
		t.Fatalf("winning plan invalid: %v", err)
	}
	if len(res.Runs) != len(solver.RacingNames(core.TwoD)) {
		t.Fatalf("expected %d runs, got %d", len(solver.RacingNames(core.TwoD)), len(res.Runs))
	}
}

// Same seed, 1 worker vs many workers: identical winner and identical plan.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	for _, kind := range []core.Kind{core.OneD, core.TwoD} {
		in := gen.Small(kind, 50, 2, 21)
		var ref *solver.Result
		for _, workers := range []int{1, 4} {
			res, err := solver.Solve(context.Background(), "portfolio", in, solver.Params{Workers: workers, Seed: 5, Restarts: 2})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", kind, workers, err)
			}
			if ref == nil {
				ref = res
				continue
			}
			if res.Strategy != ref.Strategy {
				t.Errorf("%s: winner changed with worker count: %s vs %s", kind, ref.Strategy, res.Strategy)
			}
			if res.Solution.WritingTime != ref.Solution.WritingTime {
				t.Errorf("%s: writing time changed with worker count: %d vs %d",
					kind, ref.Solution.WritingTime, res.Solution.WritingTime)
			}
			if !reflect.DeepEqual(res.Solution.Selected, ref.Solution.Selected) ||
				!reflect.DeepEqual(res.Solution.Placements, ref.Solution.Placements) {
				t.Errorf("%s: plan changed with worker count", kind)
			}
		}
	}
}

func TestCancelledContextReturnsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in := gen.Small(core.OneD, 40, 2, 3)
	start := time.Now()
	_, err := solver.Solve(ctx, "portfolio", in, solver.Params{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("cancelled solve took %s", d)
	}
}

// A deadline that cuts off the heavy strategies must still yield a feasible
// plan: the cheap deterministic entrants run outside the shared deadline,
// so even an already-expired race deadline cannot leave the caller without
// an incumbent.
func TestDeadlineStillYieldsFeasiblePlan(t *testing.T) {
	in := gen.Small(core.OneD, 150, 4, 9)
	for _, timeout := range []time.Duration{time.Nanosecond, 5 * time.Millisecond} {
		res, err := solver.Solve(context.Background(), "portfolio", in, solver.Params{Deadline: timeout})
		if err != nil {
			t.Fatalf("timeout %s: race yielded no incumbent: %v", timeout, err)
		}
		if err := res.Solution.Validate(in); err != nil {
			t.Fatalf("timeout %s: plan under deadline invalid: %v", timeout, err)
		}
	}
}

func TestOnlyFiltersStrategies(t *testing.T) {
	in := gen.Small(core.OneD, 30, 1, 2)
	res, err := solver.Solve(context.Background(), "portfolio", in, solver.Params{Strategies: []string{"greedy", "row25"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 2 {
		t.Fatalf("expected 2 runs, got %d", len(res.Runs))
	}
	if _, err := solver.Solve(context.Background(), "portfolio", in, solver.Params{Strategies: []string{"sa24"}}); err == nil {
		t.Error("2D-only strategy accepted for a 1D instance")
	}
}

func TestRejectsInvalidInstance(t *testing.T) {
	if _, err := solver.Solve(context.Background(), "portfolio", &core.Instance{}, solver.Params{}); err == nil {
		t.Error("empty instance accepted")
	}
}
