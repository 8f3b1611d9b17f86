// Package portfolio races several OSP planners against each other under one
// deadline and returns the best feasible stencil plan any of them found.
// This is the solver-orchestration layer above the raw algorithms: the
// entrants come from the shared strategy registry (package solver) — E-BLOW
// (the paper's planner) runs alongside the prior-work baselines, every
// entrant honours the shared context, and the winner is picked by comparing
// writing times in the fixed registry race order — so for a fixed seed the
// outcome is identical no matter how many workers ran the race or in which
// order the entrants finished. (A deadline that truncates an entrant mid-run
// is the one source of nondeterminism: wall clock decides how far it got.)
//
// The race is useful in two regimes. Under a tight deadline the cheap
// greedy/row heuristics guarantee a feasible incumbent even when the LP or
// annealing planners are cut off mid-run. With room to spare, E-BLOW
// usually wins, but on degenerate instances a baseline occasionally beats
// it — the portfolio returns whichever plan writes fastest.
//
// The package exports no entry point: it registers the race in the strategy
// registry under the name "portfolio", so the job service and
// eblow.SolveWith schedule a whole race like any single strategy, configured
// by the same solver.Params.
package portfolio

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"eblow/internal/core"
	"eblow/internal/par"
	"eblow/internal/solver"
)

// ErrNoSolution is returned when no strategy produced a feasible solution
// (for example because the deadline cut all of them off).
var ErrNoSolution = errors.New("portfolio: no strategy produced a feasible solution")

// init registers the whole race as a strategy of its own, so callers that
// schedule solvers by name (the job service, eblow.SolveWith) can ask for
// "portfolio" like any other entry.
func init() {
	solver.Register(&solver.Entry{
		Name: "portfolio",
		Doc:  "races the registered strategies under one deadline in fixed registry order; best feasible plan wins",
		OneD: true, TwoD: true, Heavy: true, Scalable: true,
	}, race)
}

// race runs every applicable registered strategy on the instance and
// returns the best feasible plan, its winner and every entrant's run. The
// registry wrapper has already validated the instance, checked the context
// and folded p.Deadline into ctx, the race's shared deadline: strategies it
// cuts off drop out and the best finished one still wins. p.Workers bounds
// how many entrants run at once and how many goroutines the inner planners
// may use (0 = one per CPU); the result is the same for every worker count
// unless the deadline truncates an entrant. Each entrant runs with
// p.Seed plus its registry seed offset and with p.Restarts; p.Strategies
// restricts the entrant set.
func race(ctx context.Context, in *core.Instance, p solver.Params) (*solver.Result, error) {
	entries, err := entrants(in, p.Strategies)
	if err != nil {
		return nil, err
	}

	// The heavy (annealing/LP) strategies race concurrently; handing each of
	// them the full pool would oversubscribe the CPUs roughly heavy-fold and
	// distort per-strategy timings, so the ones actually racing share it.
	// Only the worker-scalable heavies count for the split (registry
	// metadata): a heavy entrant that cannot use more than one goroutine is
	// handed exactly one, and the pool divides among the entrants that
	// genuinely scale — the exact branch and bound included, now that its
	// node evaluation is parallel. The split does not affect results —
	// inner solvers are worker-count independent.
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	scalable := 0
	for _, e := range entries {
		if e.Heavy && e.Scalable {
			scalable++
		}
	}
	if scalable < 1 {
		scalable = 1
	}
	inner := workers / scalable
	if inner < 1 {
		inner = 1
	}

	// Race: every strategy writes only its own slot, so the runs slice is
	// identical for any worker count; completion order never matters.
	runs := make([]solver.Run, len(entries))
	tasks := make([]func(), len(entries))
	for i, e := range entries {
		i, e := i, e
		entrantWorkers := inner
		if e.Heavy && !e.Scalable {
			entrantWorkers = 1
		}
		ep := solver.Params{
			Workers:  entrantWorkers,
			Seed:     p.Seed + e.SeedOffset,
			Restarts: p.Restarts,
		}
		// The cheap deterministic heuristics run outside the shared
		// deadline: they finish in milliseconds and guarantee a feasible
		// incumbent even when the deadline already cut the heavy planners
		// off mid-run.
		runCtx := ctx
		if e.Cheap {
			runCtx = context.WithoutCancel(ctx)
		}
		tasks[i] = func() {
			t0 := time.Now()
			res, err := e.Solver().Solve(runCtx, in, ep)
			var sol *core.Solution
			switch {
			case err != nil:
			case !res.Feasible:
				// Only feasible plans may win the race.
				err = fmt.Errorf("portfolio: %s produced an invalid plan: %w", e.Name, res.Solution.Validate(in))
			default:
				sol = res.Solution
			}
			runs[i] = solver.Run{Name: e.Name, Solution: sol, Err: err, Elapsed: time.Since(t0)}
		}
	}
	par.Do(workers, tasks...)

	res := &solver.Result{Runs: runs}
	for _, r := range runs {
		if r.Solution == nil {
			continue
		}
		if res.Solution == nil || r.Solution.WritingTime < res.Solution.WritingTime {
			res.Solution = r.Solution
			res.Strategy = r.Name
		}
	}
	if res.Solution == nil {
		// Prefer surfacing the caller's cancellation over the generic error.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, ErrNoSolution
	}
	return res, nil
}

// entrants resolves the registry entries racing for the instance kind, in
// the fixed registration (race) order. With no only filter the default
// racing set runs; an explicit filter may name any registered strategy that
// supports the kind (so "exact" can be raced on tiny instances), except the
// portfolio itself.
func entrants(in *core.Instance, only []string) ([]*solver.Entry, error) {
	if len(only) == 0 {
		return solver.Racing(in.Kind), nil
	}
	allowed := make(map[string]bool, len(only))
	for _, n := range only {
		allowed[n] = true
	}
	var kept []*solver.Entry
	for _, e := range solver.Entries() {
		if allowed[e.Name] && e.Name != "portfolio" && e.Supports(in.Kind) {
			kept = append(kept, e)
			delete(allowed, e.Name)
		}
	}
	// Report leftovers in the caller's order, not map order, so the same
	// bad filter always produces the same error.
	for _, n := range only {
		if !allowed[n] {
			continue
		}
		if n == "portfolio" {
			return nil, errors.New("portfolio: the race cannot contain itself; drop \"portfolio\" from Params.Strategies")
		}
		return nil, fmt.Errorf("portfolio: unknown strategy %q for %s instances (have %v)", n, in.Kind, solver.RacingNames(in.Kind))
	}
	return kept, nil
}
