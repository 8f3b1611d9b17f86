// Package anneal provides a small, generic simulated-annealing engine. The
// paper's clustered 2DOSP flow of E-BLOW plugs a sequence-pair floorplanning
// state into it;
// the baseline planner (the prior-work flow the paper compares against) uses
// the same engine without the clustering front end, so that the measured
// difference between the two is the algorithmic contribution and not the
// annealer.
//
// The engine is cancellable: Minimize polls its context between moves and
// returns the best state found so far when the context is done, so callers
// can bound a run with a deadline or cancel it outright. MultiStart runs K
// independent seeded restarts on a bounded worker pool and merges the
// outcomes in restart order, which keeps the result deterministic for a
// fixed seed no matter how many workers execute the restarts.
package anneal

import (
	"context"
	"math"
	"math/rand"
	"time"

	"eblow/internal/par"
)

// State is a mutable optimization state. Perturb applies a random move and
// returns an undo function; Cost evaluates the current state; Snapshot and
// Restore save and reinstate the best state found.
//
// The engine only ever uses the undo returned by the most recent Perturb and
// uses it at most once (immediately, when the move is rejected), so states
// may return a shared pre-allocated closure instead of allocating one per
// move. Likewise the engine holds at most one live snapshot at a time —
// every improvement's Snapshot replaces the previous one — so states may
// rotate snapshots through two reusable buffers instead of allocating. Any
// future engine change that keeps several snapshots alive at once breaks
// that contract and must not be made silently.
type State interface {
	Cost() float64
	Perturb(rng *rand.Rand) (undo func())
	Snapshot() interface{}
	Restore(snapshot interface{})
}

// DeltaState is an optional extension for states with incremental cost
// evaluation. PerturbCost applies one random move and returns the cost of
// the resulting state together with the undo, fusing Perturb and Cost into
// one call: the state can evaluate the move as a delta while it still knows
// exactly what changed, instead of re-deriving the cost from scratch.
//
// PerturbCost must consume exactly the same random draws as Perturb and
// return exactly the value Cost would, so that a state implementing both
// interfaces anneals along a bit-identical trajectory either way.
type DeltaState interface {
	State
	PerturbCost(rng *rand.Rand) (cost float64, undo func())
}

// Options configures a run.
type Options struct {
	// InitialTemp is the starting temperature. If zero it is estimated from
	// the cost of the initial state.
	InitialTemp float64
	// FinalTemp stops the schedule (default 1e-3 of the initial temperature).
	FinalTemp float64
	// Cooling is the geometric cooling factor in (0,1); default 0.93.
	Cooling float64
	// MovesPerTemp is the number of proposed moves per temperature step;
	// default 60.
	MovesPerTemp int
	// Seed seeds the internal random generator.
	Seed int64
	// Reheats is the number of times the schedule restarts from a fraction
	// of the initial temperature after finishing; default 0.
	Reheats int
}

func (o Options) withDefaults(initialCost float64) Options {
	if o.Cooling <= 0 || o.Cooling >= 1 {
		o.Cooling = 0.93
	}
	if o.MovesPerTemp <= 0 {
		o.MovesPerTemp = 60
	}
	if o.InitialTemp <= 0 {
		o.InitialTemp = math.Max(1, math.Abs(initialCost)*0.3)
	}
	if o.FinalTemp <= 0 {
		o.FinalTemp = o.InitialTemp * 1e-3
	}
	return o
}

// Result summarises a run.
type Result struct {
	BestCost    float64
	InitialCost float64
	Moves       int
	Accepted    int
	Elapsed     time.Duration
}

// Minimize runs simulated annealing on the state and leaves it restored to
// the best configuration found. A done context stops the schedule early; the
// state still holds the best configuration seen up to that point.
func Minimize(ctx context.Context, s State, opt Options) Result {
	start := time.Now()
	initial := s.Cost()
	opt = opt.withDefaults(initial)
	rng := rand.New(rand.NewSource(opt.Seed))

	res := Result{BestCost: initial, InitialCost: initial}
	best := s.Snapshot()
	cur := initial

	done := ctx.Done()
	stopped := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}

	// Cost-delta aware acceptance: a DeltaState evaluates the move it just
	// made incrementally inside PerturbCost; plain states pay a separate
	// full Cost call per move.
	ds, hasDelta := s.(DeltaState)

	runSchedule := func(startTemp float64) {
		temp := startTemp
		for temp > opt.FinalTemp {
			for i := 0; i < opt.MovesPerTemp; i++ {
				if stopped() {
					return
				}
				var next float64
				var undo func()
				if hasDelta {
					next, undo = ds.PerturbCost(rng)
				} else {
					undo = s.Perturb(rng)
					next = s.Cost()
				}
				res.Moves++
				delta := next - cur
				if delta <= 0 || rng.Float64() < math.Exp(-delta/temp) {
					cur = next
					res.Accepted++
					if cur < res.BestCost {
						res.BestCost = cur
						best = s.Snapshot()
					}
				} else {
					undo()
				}
			}
			temp *= opt.Cooling
		}
	}

	runSchedule(opt.InitialTemp)
	for r := 0; r < opt.Reheats; r++ {
		if stopped() {
			break
		}
		// Restart from the best state at a reduced temperature.
		s.Restore(best)
		cur = res.BestCost
		runSchedule(opt.InitialTemp * 0.3)
	}

	s.Restore(best)
	res.Elapsed = time.Since(start)
	return res
}

// Run is the outcome of one restart of a multi-start annealing run.
type Run struct {
	// State is the restart's state, restored to its best configuration.
	State State
	// Result summarises the restart.
	Result Result
}

// MultiStart runs `restarts` independent annealing runs on states produced
// by newState (called with the restart index) and returns the outcomes
// indexed by restart. Each restart derives its own seed from opt.Seed and the
// restart index, so the set of runs is identical no matter how many workers
// execute them; callers pick the winner by scanning the slice in order,
// which makes the merge deterministic. workers <= 0 means one worker per
// restart. A done context stops every run early (the runs still report
// their best-so-far states).
func MultiStart(ctx context.Context, newState func(restart int) State, restarts, workers int, opt Options) []Run {
	if restarts <= 0 {
		restarts = 1
	}
	if workers <= 0 || workers > restarts {
		workers = restarts
	}
	runs := make([]Run, restarts)
	par.For(workers, restarts, func(r int) {
		o := opt
		// Large odd stride keeps per-restart seeds distinct even when
		// callers use small consecutive base seeds.
		o.Seed = opt.Seed + int64(r)*7919
		st := newState(r)
		runs[r] = Run{State: st, Result: Minimize(ctx, st, o)}
	})
	return runs
}
