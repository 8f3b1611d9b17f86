// Package batch is the batched many-instance execution layer: it turns a
// set of concurrently queued compatible jobs into one cohort that shares a
// worker sweep instead of draining job-by-job.
//
// The package has two halves:
//
//   - Queue is the cost-model scheduler. The service pushes every queued
//     job with a cost estimate (Estimate: chars x regions x strategy,
//     replaced by measured runtimes from internal/learn once a store has
//     traffic history) and Pop returns the next unit of work — the
//     cheapest eligible job plus every compatible small job it can take
//     along, up to the policy's cohort size. Fairness is bounded, not
//     best-effort: a job can be overtaken by at most Policy.MaxJump
//     later-submitted jobs before the scheduler pins it to the front, so
//     starvation is impossible by construction.
//   - Execute runs a popped cohort: one par.For sweep of plain
//     solver.Solve calls, one per unit.
//
// The batch-identity contract (docs/INVARIANTS.md): for every unit, the
// Result of a batched run is bit-identical to the solo solver.Solve call
// the service would have made — same objective, same plan, same digest.
// It holds by construction, because each unit runs the solo call itself
// with its own context, seed stream, and deadline; a cohort changes only
// start order.
package batch

import (
	"context"

	"eblow/internal/core"
	"eblow/internal/par"
	"eblow/internal/solver"
)

// Unit is one job's solve inside a cohort.
type Unit struct {
	// Ctx cancels this unit alone; it must be non-nil.
	Ctx context.Context
	// Instance is the problem to solve.
	Instance *core.Instance
	// Strategy is the resolved registry name; it must be batchable
	// (Batchable reports true) for cohort formation, though Execute runs
	// any registered strategy.
	Strategy string
	// Params are the solve parameters, exactly as the solo path would pass
	// them to solver.Solve.
	Params solver.Params
}

// UnitResult pairs one unit's outcome with its error, mirroring the
// (Result, error) return of solver.Solve.
type UnitResult struct {
	Result *solver.Result
	Err    error
}

// Batchable reports whether the named strategy is registered, supports the
// kind, and is marked safe for cohort execution.
func Batchable(name string, kind core.Kind) bool {
	e, ok := solver.LookupEntry(name)
	return ok && e.Batchable && e.Supports(kind)
}

// Execute runs the units as one cohort and returns one UnitResult per unit,
// index-aligned: a par.For sweep bounded by workers goroutines calls
// solver.Solve for each unit, so results are the solo results.
func Execute(units []Unit, workers int) []UnitResult {
	out := make([]UnitResult, len(units))
	par.For(workers, len(units), func(i int) {
		u := units[i]
		r, err := solver.Solve(u.Ctx, u.Strategy, u.Instance, u.Params)
		out[i] = UnitResult{Result: r, Err: err}
	})
	return out
}
