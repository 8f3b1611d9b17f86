// Package batch is the job service's cost-model scheduler.
//
// The service pushes every queued job with a static cost estimate
// (Estimate: chars x regions x strategy) and Queue.Pop returns
// the cheapest pending job, one job per pop. Fairness is bounded, not
// best-effort: a job can be overtaken by at most the queue's aging bound
// of later-submitted jobs before the scheduler pins it to the front, so
// starvation is impossible by construction.
//
// The scheduler changes only when a job runs, never its result: every
// popped job runs the same solve the FIFO drain would have run, so its
// digest is identical (docs/INVARIANTS.md#batchidentity).
//
// Execute, Unit and UnitResult are kept only for the end-to-end
// benchmark's batch probe (e2ebench), which times a fixed sweep of solo
// solver.Solve calls; the service itself no longer uses them.
package batch

import (
	"context"

	"eblow/internal/core"
	"eblow/internal/par"
	"eblow/internal/solver"
)

// Unit is one solve of an Execute sweep.
type Unit struct {
	// Ctx cancels this unit alone; it must be non-nil.
	Ctx context.Context
	// Instance is the problem to solve.
	Instance *core.Instance
	// Strategy is the resolved registry name.
	Strategy string
	// Params are the solve parameters, passed to solver.Solve unchanged.
	Params solver.Params
}

// UnitResult pairs one unit's outcome with its error, mirroring the
// (Result, error) return of solver.Solve.
type UnitResult struct {
	Result *solver.Result
	Err    error
}

// Execute runs the units as one sweep and returns one UnitResult per unit,
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
