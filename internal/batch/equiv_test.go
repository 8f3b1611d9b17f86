package batch

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"eblow/internal/core"
	"eblow/internal/gen"
	"eblow/internal/solver"
)

// normalize renders the digest-relevant part of a result: strategy,
// objective, feasibility and the full stencil plan with the wall-clock
// Runtime zeroed (timing is trace-only and legitimately differs between
// solo and batched execution).
func normalize(t *testing.T, r *solver.Result) string {
	t.Helper()
	if r == nil {
		return "<nil>"
	}
	head := fmt.Sprintf("%s|%d|%v|", r.Strategy, r.Objective, r.Feasible)
	if r.Solution == nil {
		return head + "<no solution>"
	}
	sol := *r.Solution
	sol.Runtime = 0
	b, err := json.Marshal(&sol)
	if err != nil {
		t.Fatalf("marshal solution: %v", err)
	}
	return head + string(b)
}

func equivUnits(t *testing.T) []Unit {
	t.Helper()
	var units []Unit
	add := func(kind core.Kind, chars, regions int, seed int64, strategy string, p solver.Params) {
		in := gen.Small(kind, chars, regions, seed)
		units = append(units, Unit{Ctx: context.Background(), Instance: in, Strategy: strategy, Params: p})
	}
	// A mixed cohort: several sa24 2D jobs, 2D greedy jobs, plus 1D jobs
	// on every other batchable strategy.
	add(core.TwoD, 24, 3, 11, "sa24", solver.Params{Seed: 1, Workers: 1})
	add(core.TwoD, 18, 2, 12, "sa24", solver.Params{Seed: 2, Workers: 1, Restarts: 2})
	add(core.TwoD, 30, 4, 13, "sa24", solver.Params{Seed: 3, Workers: 2})
	add(core.TwoD, 26, 3, 18, "greedy", solver.Params{Seed: 8, Workers: 1})
	add(core.TwoD, 20, 2, 19, "greedy", solver.Params{Seed: 9, Workers: 1})
	add(core.OneD, 40, 3, 14, "greedy", solver.Params{Seed: 4, Workers: 1})
	add(core.OneD, 36, 2, 15, "row25", solver.Params{Seed: 5, Workers: 1})
	add(core.OneD, 32, 3, 16, "heuristic24", solver.Params{Seed: 6, Workers: 1})
	add(core.OneD, 28, 2, 17, "greedy", solver.Params{Seed: 7, Workers: 1})
	return units
}

// TestExecuteMatchesSolo is the executor-level half of the batch-identity
// contract: for every unit of a mixed-strategy cohort, Execute must return a
// result digest-identical to a solo solver.Solve call, at every sweep width.
func TestExecuteMatchesSolo(t *testing.T) {
	units := equivUnits(t)
	solo := make([]string, len(units))
	for i, u := range units {
		r, err := solver.Solve(u.Ctx, u.Strategy, u.Instance, u.Params)
		if err != nil {
			t.Fatalf("solo solve %d (%s): %v", i, u.Strategy, err)
		}
		solo[i] = normalize(t, r)
	}
	for _, workers := range []int{1, 2, 3, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got := Execute(units, workers)
			if len(got) != len(units) {
				t.Fatalf("Execute returned %d results for %d units", len(got), len(units))
			}
			for i, ur := range got {
				if ur.Err != nil {
					t.Errorf("unit %d (%s): batched error %v", i, units[i].Strategy, ur.Err)
					continue
				}
				if b := normalize(t, ur.Result); b != solo[i] {
					t.Errorf("unit %d (%s): batched result diverged from solo\nbatched: %s\nsolo:    %s",
						i, units[i].Strategy, b, solo[i])
				}
			}
		})
	}
}

// TestExecuteSA24Singleton checks the n=1 degenerate cohort: a lone sa24
// unit through the batched path still matches its solo solve.
func TestExecuteSA24Singleton(t *testing.T) {
	in := gen.Small(core.TwoD, 20, 2, 99)
	u := Unit{Ctx: context.Background(), Instance: in, Strategy: "sa24", Params: solver.Params{Seed: 42, Workers: 1}}
	r, err := solver.Solve(u.Ctx, u.Strategy, u.Instance, u.Params)
	if err != nil {
		t.Fatalf("solo solve: %v", err)
	}
	got := Execute([]Unit{u}, 4)
	if got[0].Err != nil {
		t.Fatalf("batched error: %v", got[0].Err)
	}
	if b, s := normalize(t, got[0].Result), normalize(t, r); b != s {
		t.Fatalf("singleton cohort diverged from solo\nbatched: %s\nsolo:    %s", b, s)
	}
}

// TestExecutePropagatesErrors checks that a unit doomed to fail (a 1D-only
// strategy on a 2D instance) reports its error without disturbing its
// cohort-mates.
func TestExecutePropagatesErrors(t *testing.T) {
	good := Unit{
		Ctx:      context.Background(),
		Instance: gen.Small(core.OneD, 30, 2, 5),
		Strategy: "greedy",
		Params:   solver.Params{Seed: 1},
	}
	bad := Unit{
		Ctx:      context.Background(),
		Instance: gen.Small(core.TwoD, 20, 2, 6),
		Strategy: "row25", // 1D-only
		Params:   solver.Params{Seed: 1},
	}
	got := Execute([]Unit{good, bad, good}, 2)
	if got[0].Err != nil || got[2].Err != nil {
		t.Fatalf("good units errored: %v / %v", got[0].Err, got[2].Err)
	}
	if got[1].Err == nil {
		t.Fatal("row25 on a 2D instance succeeded in a cohort; want an error")
	}
}

// TestExecuteCanceledContext checks that an already-canceled unit context
// surfaces context.Canceled for that unit only.
func TestExecuteCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	live := Unit{
		Ctx:      context.Background(),
		Instance: gen.Small(core.TwoD, 16, 2, 7),
		Strategy: "sa24",
		Params:   solver.Params{Seed: 9},
	}
	dead := live
	dead.Ctx = ctx
	got := Execute([]Unit{live, dead}, 2)
	if got[0].Err != nil {
		t.Fatalf("live unit errored: %v", got[0].Err)
	}
	if got[1].Err == nil {
		t.Fatal("canceled unit returned no error")
	}
}

func TestBatchable(t *testing.T) {
	cases := []struct {
		strategy string
		kind     core.Kind
		want     bool
	}{
		{"sa24", core.TwoD, true},
		{"sa24", core.OneD, false}, // sa24 is 2D-only
		{"greedy", core.OneD, true},
		{"row25", core.OneD, true},
		{"heuristic24", core.OneD, true},
		{"eblow", core.OneD, false},
		{"portfolio", core.OneD, false},
		{"no-such-strategy", core.OneD, false},
	}
	for _, c := range cases {
		if got := Batchable(c.strategy, c.kind); got != c.want {
			t.Errorf("Batchable(%q, %s) = %v, want %v", c.strategy, c.kind, got, c.want)
		}
	}
}
