package eblow

import (
	"context"

	// Registers the "portfolio" race as a strategy.
	_ "eblow/internal/portfolio"
	"eblow/internal/solver"
)

// The unified solver API. Every planning strategy in the repository — the
// paper's E-BLOW planners, the prior-work baselines, the exact ILP and the
// portfolio race — implements the one Solver interface and is configured by
// the one Params struct, so callers (the CLI, the job service, user code)
// can schedule any strategy by name without caring which algorithm family
// it belongs to.
type (
	// Solver is one named OSP planning strategy. Solve validates the
	// instance, rejects unsupported kinds, honours context cancellation
	// plus Params.Deadline, and returns a uniform Result.
	Solver = solver.Solver
	// Params is the unified solver configuration (workers, seed, deadline,
	// restarts, strategy set, trace collection) and the only way to
	// configure a strategy.
	Params = solver.Params
	// Result is the unified solve outcome: the plan, its writing-time
	// objective, feasibility, the producing strategy, wall-clock time and
	// optional trace/stats/exact details.
	Result = solver.Result
	// SolverInfo describes one registered strategy (name, supported kinds,
	// whether it joins the default portfolio race).
	SolverInfo = solver.Entry
	// Run is one strategy's outcome inside a portfolio race (Result.Runs).
	Run = solver.Run
	// NoIncumbentError is the error of an "exact" solve that ended without
	// a feasible plan; its Exact field still reports the search details.
	NoIncumbentError = solver.NoIncumbentError
)

// Solvers returns every registered strategy applicable to the given
// instance kind, in registry (portfolio race) order.
func Solvers(kind Kind) []Solver { return solver.ForKind(kind) }

// Lookup returns the named strategy ("eblow", "greedy", "heuristic24",
// "row25", "sa24", "exact", "portfolio").
func Lookup(name string) (Solver, bool) { return solver.Lookup(name) }

// SolverNames lists every registered strategy name, sorted.
func SolverNames() []string { return solver.Names() }

// SolverInfos returns the metadata of every registered strategy in registry
// order.
func SolverInfos() []*SolverInfo { return solver.Entries() }

// LookupInfo returns a copy of the named strategy's registry metadata.
func LookupInfo(name string) (*SolverInfo, bool) {
	e, ok := solver.LookupEntry(name)
	if !ok {
		return nil, false
	}
	cp := *e
	return &cp, true
}

// SolveWith is the single entry point behind Solve, the CLI and the job
// service. The strategy set in p.Strategies picks what runs:
//
//   - empty: the E-BLOW planner for the instance kind (the default);
//   - one name: that strategy alone ("portfolio" runs the default race);
//   - several names: a portfolio race restricted to those strategies.
//
// The context plus p.Deadline bound the solve; results are deterministic
// for a fixed p.Seed regardless of p.Workers unless a deadline truncates an
// annealing run mid-schedule.
func SolveWith(ctx context.Context, in *Instance, p Params) (*Result, error) {
	name := "eblow"
	switch {
	case len(p.Strategies) == 1:
		name = p.Strategies[0]
		if name == "portfolio" {
			p.Strategies = nil // the default race, not a race of "portfolio"
		}
	case len(p.Strategies) > 1:
		name = "portfolio"
	}
	return solver.Solve(ctx, name, in, p)
}
