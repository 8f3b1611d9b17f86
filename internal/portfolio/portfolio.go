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
// The package also registers itself in the strategy registry under the name
// "portfolio", so the job service and eblow.SolveWith can schedule a whole
// race like any single strategy.
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

// Options configures a portfolio race.
type Options struct {
	// Workers bounds how many strategies run concurrently and how many
	// goroutines the inner planners may use (the heavy strategies share
	// the pool; see entrants). 0 means one worker per CPU; 1 runs
	// the whole portfolio sequentially. The returned solution is the same
	// for every worker count unless the deadline truncates an entrant.
	Workers int
	// Timeout is the shared deadline for the whole race (0 = none beyond
	// the caller's context). Strategies cut off by the deadline simply
	// drop out; the best finished strategy still wins.
	Timeout time.Duration
	// Seed seeds the randomized strategies; each strategy derives its own
	// sub-seed (Seed plus its registry seed offset), so runs are
	// reproducible and entrants never share a random stream.
	Seed int64
	// Restarts is the number of annealing restarts given to the SA-based
	// strategies (0 means 1).
	Restarts int
	// Only restricts the race to the named strategies (see Names). Nil
	// means every registered racing strategy for the instance kind.
	Only []string
}

func (o Options) workerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Run is one strategy's outcome in the race.
type Run = solver.Run

// Result is the outcome of a portfolio race.
type Result struct {
	// Best is the fastest-writing feasible plan any strategy produced.
	Best *core.Solution
	// Winner names the strategy that produced Best.
	Winner string
	// Runs holds every strategy's outcome in race order.
	Runs []Run
	// Elapsed is the wall-clock time of the whole race.
	Elapsed time.Duration
}

// ErrNoSolution is returned when no strategy produced a feasible solution
// (for example because the deadline cut all of them off).
var ErrNoSolution = errors.New("portfolio: no strategy produced a feasible solution")

// Names lists the strategies applicable to the given instance kind, in race
// order. The order comes from the strategy registry and is part of the
// determinism contract: ties in writing time go to the earlier strategy.
func Names(kind core.Kind) []string { return solver.RacingNames(kind) }

// Solve races every applicable registered strategy on the instance and
// returns the best feasible plan. The context plus opt.Timeout bound the
// whole race; a context that is already done returns ctx.Err() immediately.
func Solve(ctx context.Context, in *core.Instance, opt Options) (*Result, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if opt.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.Timeout)
		defer cancel()
	}

	entries, err := entrants(in, opt)
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
	workers := opt.workerCount()
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
	runs := make([]Run, len(entries))
	tasks := make([]func(), len(entries))
	for i, e := range entries {
		i, e := i, e
		entrantWorkers := inner
		if e.Heavy && !e.Scalable {
			entrantWorkers = 1
		}
		p := solver.Params{
			Workers:  entrantWorkers,
			Seed:     opt.Seed + e.SeedOffset,
			Restarts: opt.Restarts,
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
			res, err := e.Solver().Solve(runCtx, in, p)
			var sol *core.Solution
			switch {
			case err != nil:
			case !res.Feasible:
				// Only feasible plans may win the race.
				err = fmt.Errorf("portfolio: %s produced an invalid plan: %w", e.Name, res.Solution.Validate(in))
			default:
				sol = res.Solution
			}
			runs[i] = Run{Name: e.Name, Solution: sol, Err: err, Elapsed: time.Since(t0)}
		}
	}
	par.Do(workers, tasks...)

	res := &Result{Runs: runs, Elapsed: time.Since(start)}
	for _, r := range runs {
		if r.Solution == nil {
			continue
		}
		if res.Best == nil || r.Solution.WritingTime < res.Best.WritingTime {
			res.Best = r.Solution
			res.Winner = r.Name
		}
	}
	if res.Best == nil {
		// Prefer surfacing the caller's cancellation over the generic error.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, ErrNoSolution
	}
	return res, nil
}

// entrants resolves the registry entries racing for the instance kind, in
// the fixed registration (race) order. With no opt.Only filter the default
// racing set runs; an explicit filter may name any registered strategy that
// supports the kind (so "exact" can be raced on tiny instances), except the
// portfolio itself.
func entrants(in *core.Instance, opt Options) ([]*solver.Entry, error) {
	if len(opt.Only) == 0 {
		return solver.Racing(in.Kind), nil
	}
	allowed := make(map[string]bool, len(opt.Only))
	for _, n := range opt.Only {
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
	for _, n := range opt.Only {
		if !allowed[n] {
			continue
		}
		if n == "portfolio" {
			return nil, errors.New("portfolio: the race cannot contain itself; drop \"portfolio\" from Only")
		}
		return nil, fmt.Errorf("portfolio: unknown strategy %q for %s instances (have %v)", n, in.Kind, Names(in.Kind))
	}
	return kept, nil
}

// init registers the whole race as a strategy of its own, so callers that
// schedule solvers by name (the job service, eblow.SolveWith) can ask for
// "portfolio" like any other entry. Params map onto Options: Workers, Seed
// and Restarts pass through, Strategies restricts the entrant set, and the
// deadline is already carried by the context the registry wrapper built.
func init() {
	solver.Register(&solver.Entry{
		Name: "portfolio",
		Doc:  "races the registered strategies under one deadline in fixed registry order; best feasible plan wins",
		OneD: true, TwoD: true, Heavy: true, Scalable: true,
	}, func(ctx context.Context, in *core.Instance, p solver.Params) (*solver.Result, error) {
		res, err := Solve(ctx, in, Options{
			Workers:  p.Workers,
			Seed:     p.Seed,
			Restarts: p.Restarts,
			Only:     p.Strategies,
		})
		if err != nil {
			return nil, err
		}
		return &solver.Result{Solution: res.Best, Strategy: res.Winner, Runs: res.Runs}, nil
	})
}
