package exact

import (
	"context"
	"errors"
	"testing"
	"time"

	"eblow/internal/gen"
	"eblow/internal/ilp"
)

func TestSolveCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in1, err := gen.ByName("1T-1")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := Solve1D(ctx, in1, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Solve1D: expected context.Canceled, got %v", err)
	}
	in2, err := gen.ByName("2T-1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Solve2D(ctx, in2, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Solve2D: expected context.Canceled, got %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("cancelled solves took %s", d)
	}
}

// A context deadline is the one bound of an exact search: it must stop branch
// and bound promptly, and an incumbent found before it fired must be a
// valid plan.
func TestSolveContextDeadlineCutsSearch(t *testing.T) {
	in, err := gen.ByName("1T-5")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := Solve1D(ctx, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("context deadline ignored: search ran %s", d)
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
