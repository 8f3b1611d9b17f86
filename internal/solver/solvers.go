package solver

import (
	"context"
	"fmt"

	"eblow/internal/baseline"
	"eblow/internal/core"
	"eblow/internal/exact"
	"eblow/internal/oned"
	"eblow/internal/twod"
)

// The base strategies register here in race order: the registration order is
// the portfolio race order per kind (1D: eblow, row25, heuristic24, greedy —
// 2D: eblow, sa24, greedy), and ties in writing time go to the earlier
// entry. The seed offsets reproduce the pre-registry strategy table
// bit-for-bit: heuristic24 raced with Seed+1 and sa24 with Seed+2.
func init() {
	Register(&Entry{
		Name: "eblow", Doc: "the paper's E-BLOW planner (1D successive rounding with a block-decomposed parallel relaxation / 2D blank-sharing shelf packing of the pre-filtered characters)",
		OneD: true, TwoD: true, Heavy: true, Racing: true, Scalable: true,
	}, solveEBlow)
	Register(&Entry{
		Name: "row25", Doc: "deterministic row-structure 1D heuristic ([25] in the paper)",
		OneD: true, Racing: true, Cheap: true,
	}, func(ctx context.Context, in *core.Instance, p Params) (*Result, error) {
		sol, err := baseline.RowHeuristic1D(in)
		if err != nil {
			return nil, err
		}
		return &Result{Solution: sol}, nil
	})
	Register(&Entry{
		Name: "heuristic24", Doc: "prior-work two-step 1D heuristic ([24] in the paper)",
		OneD: true, Racing: true, SeedOffset: 1,
	}, func(ctx context.Context, in *core.Instance, p Params) (*Result, error) {
		sol, err := baseline.Heuristic1D(ctx, in, baseline.Heuristic1DOptions{Seed: p.Seed})
		if err != nil {
			return nil, err
		}
		return &Result{Solution: sol}, nil
	})
	Register(&Entry{
		Name: "sa24", Doc: "prior-work fixed-outline SA floorplanner for 2DOSP ([24] in the paper)",
		TwoD: true, Heavy: true, Racing: true, Scalable: true, SeedOffset: 2,
	}, func(ctx context.Context, in *core.Instance, p Params) (*Result, error) {
		sol, err := baseline.SA2D(ctx, in, baseline.SA2DOptions{
			Seed:     p.Seed,
			Restarts: p.Restarts,
			Workers:  p.Workers,
		})
		if err != nil {
			return nil, err
		}
		return &Result{Solution: sol}, nil
	})
	Register(&Entry{
		Name: "greedy", Doc: "greedy selection baseline (Tables 3 and 4 of the paper)",
		OneD: true, TwoD: true, Racing: true, Cheap: true,
	}, func(ctx context.Context, in *core.Instance, p Params) (*Result, error) {
		var (
			sol *core.Solution
			err error
		)
		if in.Kind == core.OneD {
			sol, err = baseline.Greedy1D(in)
		} else {
			sol, err = baseline.Greedy2D(in)
		}
		if err != nil {
			return nil, err
		}
		return &Result{Solution: sol}, nil
	})
	Register(&Entry{
		Name: "exact", Doc: "exact ILP formulations (3)/(7) by parallel branch and bound (tiny instances only)",
		OneD: true, TwoD: true, Heavy: true, Scalable: true,
	}, solveExact)
}

// solveEBlow dispatches the E-BLOW planner by instance kind under the
// unified params.
func solveEBlow(ctx context.Context, in *core.Instance, p Params) (*Result, error) {
	if in.Kind == core.OneD {
		sol, trace, err := oned.Solve(ctx, in, p.effective1D())
		if err != nil {
			return nil, err
		}
		return &Result{Solution: sol, Trace: trace}, nil
	}
	// The served 2D planner reads no option: its plan is the same for every
	// seed, restart count and worker count.
	sol, stats, err := twod.Solve(ctx, in, twod.Defaults())
	if err != nil {
		return nil, err
	}
	return &Result{Solution: sol, Stats: stats}, nil
}

// solveExact runs the exact branch-and-bound formulation; the context, which
// carries Params.Deadline, bounds the search and Params.Workers sizes the
// parallel node evaluation.
func solveExact(ctx context.Context, in *core.Instance, p Params) (*Result, error) {
	opt := exact.Options{Workers: p.Workers}
	var (
		res *exact.Result
		err error
	)
	if in.Kind == core.OneD {
		res, err = exact.Solve1D(ctx, in, opt)
	} else {
		res, err = exact.Solve2D(ctx, in, opt)
	}
	if err != nil {
		return nil, err
	}
	if res.Solution == nil {
		return nil, &NoIncumbentError{Exact: res}
	}
	return &Result{Solution: res.Solution, Exact: res}, nil
}

// NoIncumbentError is the error of an exact solve whose search ended
// (typically at its time limit) without a feasible plan. Exact carries the
// search details: status, nodes and formulation size.
type NoIncumbentError struct{ Exact *exact.Result }

func (e *NoIncumbentError) Error() string {
	return fmt.Sprintf("solver: exact ILP found no incumbent (status %s)", e.Exact.Status)
}
