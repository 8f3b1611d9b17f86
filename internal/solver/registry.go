package solver

import (
	"context"
	"fmt"
	"sort"
	"time"

	"eblow/internal/core"
)

// Entry describes one registered strategy: the Solver plus the metadata the
// portfolio race and the job service need to schedule it.
type Entry struct {
	// Name is the stable registry name ("eblow", "greedy", ...).
	Name string
	// Doc is a one-line human description.
	Doc string
	// OneD and TwoD report which instance kinds the strategy supports.
	OneD, TwoD bool
	// Heavy marks strategies that saturate the worker pool themselves
	// (annealing/LP planners); the portfolio splits its pool among the
	// heavy entrants actually racing.
	Heavy bool
	// Scalable marks strategies whose throughput actually grows with
	// Params.Workers (parallel rounding/annealing stages, the parallel
	// branch and bound) while their result stays worker-count independent.
	// The portfolio divides its pool among the scalable heavy entrants
	// only: a heavy-but-serial strategy is handed a single worker, so the
	// pool is never wasted on goroutines a strategy cannot use.
	Scalable bool
	// Racing marks strategies that take part in the default portfolio
	// race. Exact ILP and the portfolio itself stay out.
	Racing bool
	// Cheap marks deterministic strategies fast enough to run to
	// completion even after a race deadline has expired. The portfolio
	// runs them outside the shared deadline so a tight race still yields
	// a feasible incumbent — the degradation guarantee the package doc of
	// internal/portfolio promises.
	Cheap bool
	// SeedOffset is added to Params.Seed when the strategy runs inside a
	// portfolio race, so racing entrants never share a random stream. The
	// offsets are part of the determinism contract: they keep race results
	// bit-identical to the pre-registry strategy table.
	SeedOffset int64

	solve func(ctx context.Context, in *core.Instance, p Params) (*Result, error)
}

// Supports reports whether the strategy applies to the given instance kind.
func (e *Entry) Supports(kind core.Kind) bool {
	if kind == core.OneD {
		return e.OneD
	}
	return e.TwoD
}

// Kinds renders the supported kinds for error messages and listings.
func (e *Entry) Kinds() string {
	switch {
	case e.OneD && e.TwoD:
		return "1D+2D"
	case e.OneD:
		return "1D"
	default:
		return "2D"
	}
}

// Solver returns the entry's strategy under the uniform Solve contract.
func (e *Entry) Solver() Solver { return entrySolver{e} }

// entrySolver adapts an Entry to the Solver interface while enforcing the
// uniform contract (validation, kind check, deadline, result stamping).
type entrySolver struct{ e *Entry }

func (s entrySolver) Name() string { return s.e.Name }

func (s entrySolver) Solve(ctx context.Context, in *core.Instance, p Params) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if !s.e.Supports(in.Kind) {
		return nil, fmt.Errorf("solver: strategy %q supports %s instances, not %s", s.e.Name, s.e.Kinds(), in.Kind)
	}
	if p.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.Deadline)
		defer cancel()
	}
	t0 := time.Now()
	r, err := s.e.solve(ctx, in, p)
	if err != nil {
		return nil, err
	}
	if r.Solution == nil {
		// Enforce the interface contract (nil Solution only with a non-nil
		// error) so no caller downstream has to guard against a strategy
		// that violates it.
		return nil, fmt.Errorf("solver: strategy %q returned no solution", s.e.Name)
	}
	finish(r, in, s.e.Name, time.Since(t0))
	return r, nil
}

// registry holds the entries in registration order; that order is the
// portfolio race order and therefore part of the determinism contract (ties
// in writing time go to the earlier strategy).
var registry []*Entry

// Register adds a strategy to the registry. It panics on a duplicate name —
// registration happens at init time, so a duplicate is a programming error.
// Packages outside internal/solver (such as internal/portfolio) register
// their meta-strategies through this hook.
func Register(e *Entry, solve func(ctx context.Context, in *core.Instance, p Params) (*Result, error)) {
	if e.Name == "" || solve == nil {
		panic("solver: Register needs a name and a solve function")
	}
	for _, have := range registry {
		if have.Name == e.Name {
			panic(fmt.Sprintf("solver: duplicate strategy %q", e.Name))
		}
	}
	e.solve = solve
	registry = append(registry, e)
}

// Lookup returns the named strategy as a Solver.
func Lookup(name string) (Solver, bool) {
	for _, e := range registry {
		if e.Name == name {
			return entrySolver{e}, true
		}
	}
	return nil, false
}

// LookupEntry returns the named registry entry with its metadata.
func LookupEntry(name string) (*Entry, bool) {
	for _, e := range registry {
		if e.Name == name {
			return e, true
		}
	}
	return nil, false
}

// ForKind returns every strategy applicable to the given instance kind, in
// registration order.
func ForKind(kind core.Kind) []Solver {
	var out []Solver
	for _, e := range registry {
		if e.Supports(kind) {
			out = append(out, entrySolver{e})
		}
	}
	return out
}

// Entries returns a snapshot of every registry entry in registration
// order. The entries are copies: mutating them cannot alter the process-
// wide registry (race composition, seed offsets) behind other callers'
// backs.
func Entries() []*Entry {
	out := make([]*Entry, len(registry))
	for i, e := range registry {
		cp := *e
		out[i] = &cp
	}
	return out
}

// Names lists every registered strategy name, sorted, for error messages.
func Names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.Name
	}
	sort.Strings(out)
	return out
}

// Racing returns the entries of the default portfolio race for the given
// instance kind, in race order.
func Racing(kind core.Kind) []*Entry {
	var out []*Entry
	for _, e := range registry {
		if e.Racing && e.Supports(kind) {
			out = append(out, e)
		}
	}
	return out
}

// RacingNames lists the default portfolio race for the given kind, in race
// order.
func RacingNames(kind core.Kind) []string {
	entries := Racing(kind)
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.Name
	}
	return out
}

// Solve runs the named strategy on the instance; it is the string-keyed
// convenience the job service schedules through.
func Solve(ctx context.Context, name string, in *core.Instance, p Params) (*Result, error) {
	s, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("solver: unknown strategy %q (have %v)", name, Names())
	}
	return s.Solve(ctx, in, p)
}
