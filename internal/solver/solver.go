// Package solver defines the unified planning API every OSP strategy in
// this repository is exposed through: one Solver interface, one Params
// struct, one Result struct, and a registry that names every strategy. The
// public facade (package eblow) re-exports these types verbatim, the
// portfolio race consumes the registry instead of keeping a private
// strategy table, and the batched job service (internal/service) schedules
// arbitrary registered strategies by name.
//
// The contract every registered Solver honours:
//
//   - Solve validates the instance and rejects kinds the strategy does not
//     support before doing any work.
//   - An already-done context returns ctx.Err() immediately; Params.Deadline
//     (when positive) bounds the solve on top of the caller's context.
//   - The Result reports the plan, its writing-time objective, whether the
//     plan passed core validation, which strategy produced it, and the
//     wall-clock time of the solve.
//   - For a fixed Params.Seed the result is independent of Params.Workers,
//     unless a deadline truncates a search mid-run, an annealing schedule or
//     the exact branch and bound (wall clock then decides how far it got,
//     which nothing can make reproducible).
package solver

import (
	"context"
	"time"

	"eblow/internal/core"
	"eblow/internal/exact"
	"eblow/internal/oned"
	"eblow/internal/twod"
)

// Params is the unified solver configuration shared by every strategy and
// the only way to configure one: the planners' own parameters are the
// paper's settings, fixed inside their packages. The zero value asks for
// one worker per CPU, seed 0, no deadline, one annealing restart.
type Params struct {
	// Workers bounds the goroutines a strategy may use for its parallel
	// stages (and, for the portfolio, how many strategies race at once).
	// 0 means one worker per CPU; 1 forces the sequential flow.
	Workers int
	// Seed seeds the randomized strategies. Racing strategies derive
	// disjoint sub-seeds from it (see Entry.SeedOffset), so a portfolio
	// race never feeds two entrants the same random stream.
	Seed int64
	// Deadline bounds the solve (0 = none beyond the caller's context).
	// It is folded into the context every strategy receives, which is the
	// one stop signal of every search inside it.
	Deadline time.Duration
	// Restarts is the number of independent annealing restarts for the
	// SA-based strategies (0 means 1).
	Restarts int
	// Strategies selects which strategies a multi-strategy entry point
	// considers: SolveWith runs the single named strategy directly, races
	// several, and the portfolio strategy restricts its entrant set to the
	// named ones. Nil means the default set. Single-strategy solvers
	// ignore it.
	Strategies []string
	// CollectTrace asks the 1D planner to record its successive-rounding
	// iteration trace in Result.Trace.
	CollectTrace bool
}

// effective1D resolves the 1D planner options from the unified params.
func (p Params) effective1D() oned.Options {
	o := oned.Defaults()
	o.Workers = p.Workers
	o.CollectTrace = p.CollectTrace
	return o
}

// Result is the unified outcome of one Solve call.
type Result struct {
	// Solution is the stencil plan (nil only alongside a non-nil error).
	Solution *core.Solution
	// Objective is the plan's MCC writing time (Solution.WritingTime).
	Objective int64
	// Feasible reports whether the plan passed core validation against the
	// instance.
	Feasible bool
	// Strategy names the strategy that produced the plan; for the
	// portfolio strategy it is the winning entrant.
	Strategy string
	// Elapsed is the wall-clock time of the solve.
	Elapsed time.Duration

	// Trace is the 1D successive-rounding trace (only when requested via
	// Params.CollectTrace).
	Trace *oned.Trace
	// Stats reports what the 2D pre-filter kept (2D E-BLOW only).
	Stats *twod.Stats
	// Exact carries the branch-and-bound details of an exact solve.
	Exact *exact.Result
	// Runs holds every entrant's outcome of a portfolio race, in race
	// order (portfolio strategy only).
	Runs []Run
}

// Run is one strategy's outcome inside a portfolio race.
type Run struct {
	// Name identifies the entrant strategy.
	Name string
	// Solution is nil when the entrant failed or was cut off.
	Solution *core.Solution
	// Err reports why Solution is nil (typically context.DeadlineExceeded).
	Err error
	// Elapsed is the entrant's wall-clock time.
	Elapsed time.Duration
}

// Solver is one named OSP planning strategy.
type Solver interface {
	// Name returns the stable registry name of the strategy.
	Name() string
	// Solve plans the stencil of the instance under the unified contract
	// documented at the package level.
	Solve(ctx context.Context, in *core.Instance, p Params) (*Result, error)
}

// finish stamps the uniform Result fields after a raw solve: objective,
// feasibility against the instance, strategy name (unless the inner solver
// already set one, as the portfolio does with its winner) and elapsed time.
func finish(r *Result, in *core.Instance, name string, elapsed time.Duration) {
	r.Elapsed = elapsed
	if r.Strategy == "" {
		r.Strategy = name
	}
	if r.Solution != nil {
		r.Objective = r.Solution.WritingTime
		r.Feasible = r.Solution.Validate(in) == nil
	}
}
