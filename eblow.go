// Package eblow is an open-source reproduction of "E-BLOW: E-Beam Lithography
// Overlapping aware Stencil Planning for MCC System" (Yu, Yuan, Gao, Pan;
// DAC 2013). It plans the stencil of a character-projection e-beam
// lithography system: given character candidates with per-region repeat
// counts and VSB shot counts, it selects a subset and places it on the
// stencil (sharing blank margins between neighbours) so that the maximum
// per-region writing time of the multi-column-cell system is minimized.
//
// The package is a facade over the internal implementation, organised
// around one unified solver API:
//
//   - Solver is the single interface every planning strategy implements;
//     Params configures any of them and Result is the uniform outcome.
//   - Lookup / Solvers / SolverInfos expose the strategy registry: "eblow"
//     (the paper's 1D and 2D planners), the prior-work baselines "greedy",
//     "heuristic24", "row25" and "sa24", the exact ILP "exact", and
//     "portfolio" (a race of the others under one deadline).
//   - SolveWith runs one strategy, or races several, from one entry point;
//     Solve is the zero-configuration shorthand.
//   - Benchmark / SmallInstance generate the paper's synthetic instances;
//     ReadInstance / WriteInstance / DecodeInstance / EncodeInstance move
//     instances as JSON.
package eblow

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"eblow/internal/core"
	"eblow/internal/exact"
	"eblow/internal/gen"
	"eblow/internal/jsonlex"
	"eblow/internal/learn"
	"eblow/internal/oned"
	"eblow/internal/solver"
	"eblow/internal/twod"
)

// Re-exported model types. See the internal/core package for full
// documentation of every field.
type (
	// Instance is a complete OSP problem instance.
	Instance = core.Instance
	// Character is one character candidate.
	Character = core.Character
	// Solution is a stencil plan (selection plus placement).
	Solution = core.Solution
	// Placement locates one character on the stencil.
	Placement = core.Placement
	// Row is one stencil row of a 1D solution.
	Row = core.Row
	// Kind distinguishes 1DOSP from 2DOSP instances.
	Kind = core.Kind
)

// Problem kinds.
const (
	OneD = core.OneD
	TwoD = core.TwoD
)

// Options1D configures the E-BLOW 1D planner; the zero value uses the
// paper's parameters. Set Params.Options1D to pass it through the unified
// API.
type Options1D = oned.Options

// Options2D configures the E-BLOW 2D planner; the zero value uses the
// paper's parameters. Set Params.Options2D to pass it through the unified
// API.
type Options2D = twod.Options

// RowGroup pins a band of stencil rows to a set of wafer regions — the
// stencil band of one MCC column cell. Set Options1D.RowGroups (or generate
// the instance with bands attached: Instance.RowGroups, cmd/ospgen -bands)
// to make the 1D planner treat the stencil as per-column-cell bands; the LP
// relaxation then decomposes into independent blocks solved in parallel.
type RowGroup = oned.RowGroup

// CellBands derives the per-column-cell stencil banding of a 1DOSP
// instance: one row band per wafer region, stencil rows dealt round-robin.
// Assign the result to Instance.RowGroups (or pass it as
// Options1D.RowGroups) to run the planner in banded MCC mode; it returns
// nil when the instance cannot be banded (2DOSP, fewer than two regions, or
// fewer rows than regions).
func CellBands(in *Instance) []RowGroup { return gen.CellBands(in) }

// Trace1D exposes the successive-rounding iteration trace (Figs. 5 and 6 of
// the paper); Result.Trace carries it when Params.CollectTrace is set.
type Trace1D = oned.Trace

// ClusterStats reports what the 2D clustering stage did (Result.Stats).
type ClusterStats = twod.Stats

// ExactResult is the outcome of an exact ILP solve (Result.Exact).
type ExactResult = exact.Result

// Defaults1D returns the paper's parameter settings for the 1D planner.
func Defaults1D() Options1D { return oned.Defaults() }

// Defaults2D returns the paper's parameter settings for the 2D planner.
func Defaults2D() Options2D { return twod.Defaults() }

// Learned portfolio scheduling. A LearnStore accumulates, per instance
// shape (LearnShape), which strategy wins portfolio races of that shape;
// the portfolio consults it to reorder the race by win rate, prune heavy
// entrants that never win the shape, and rebalance its worker split — with
// a cold store reproducing the static registry order bit-for-bit. Opt in
// via Params.Learn/LearnPath (the race opens, records and saves the store
// itself) or Params.LearnStore (an already-open store shared across solves,
// persisted by its owner; cmd/eblowd holds one per server).
type (
	// LearnStore is the persistent shape-conditioned outcome store
	// (JSON on disk, atomic rewrite, merge-on-load).
	LearnStore = learn.Store
	// LearnShape is an instance fingerprint: coarse buckets for kind,
	// region count, character count, VSB pressure and stencil pressure.
	LearnShape = learn.Shape
	// LearnPlan is a scheduled race: entrant order, pruned entrants and
	// heavy-pool weights (Result.Plan reports the one actually used).
	LearnPlan = learn.Plan
	// LearnShapeStats aggregates every strategy's record on one shape.
	LearnShapeStats = learn.ShapeStats
	// LearnStrategyStats is one strategy's record on one shape.
	LearnStrategyStats = learn.StrategyStats
)

// DefaultLearnPath is the store file used when Params.Learn is set without
// a Params.LearnPath.
const DefaultLearnPath = learn.DefaultPath

// OpenLearn opens (or, on first save, creates) the learned-scheduling
// statistics store at path.
func OpenLearn(path string) (*LearnStore, error) { return learn.Open(path) }

// NewLearnStore returns an empty in-memory store with no backing file,
// useful for learning within one process without persistence.
func NewLearnStore() *LearnStore { return learn.NewStore() }

// Fingerprint buckets the instance into the shape the learned portfolio
// conditions its statistics on.
func Fingerprint(in *Instance) LearnShape { return learn.Fingerprint(in) }

// PlanRace returns the race plan the learned portfolio would use for the
// instance under the store's current statistics, without running anything:
// the default racing entrants for the instance's kind, reordered and pruned
// by the recorded win rates (or the static order when the store is cold for
// the instance's shape).
func PlanRace(store *LearnStore, in *Instance) *LearnPlan {
	entries := solver.Racing(in.Kind)
	ents := make([]learn.Entrant, len(entries))
	for i, e := range entries {
		ents[i] = e.LearnEntrant()
	}
	return store.Plan(learn.Fingerprint(in), ents, learn.PlanConfig{})
}

// Solve plans the stencil of the instance with the E-BLOW planner for its
// kind under the default parameters. It is shorthand for SolveWith with a
// zero Params.
func Solve(ctx context.Context, in *Instance) (*Solution, error) {
	r, err := SolveWith(ctx, in, Params{})
	if err != nil {
		return nil, err
	}
	return r.Solution, nil
}

// Benchmark returns the named synthetic benchmark instance ("1D-1" .. "1D-4",
// "1M-1" .. "1M-8", "2D-1" .. "2D-4", "2M-1" .. "2M-8", "1T-1" .. "1T-5",
// "2T-1" .. "2T-4").
func Benchmark(name string) (*Instance, error) { return gen.ByName(name) }

// BenchmarkNames lists every named benchmark in the order the paper reports
// them.
func BenchmarkNames() []string { return gen.AllNames() }

// SmallInstance generates a reduced-size instance with the same structure as
// the benchmark families; useful for quick starts and tests.
func SmallInstance(kind Kind, numChars, numRegions int, seed int64) *Instance {
	return gen.Small(kind, numChars, numRegions, seed)
}

// EncodeInstance writes an instance as indented JSON to w.
func EncodeInstance(w io.Writer, in *Instance) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(in); err != nil {
		return fmt.Errorf("eblow: encoding instance: %w", err)
	}
	return nil
}

// DecodeInstance reads an instance as JSON from r and validates it. It
// reads r to the end; bytes after the instance's JSON value are ignored.
func DecodeInstance(r io.Reader) (*Instance, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("eblow: decoding instance: %w", err)
	}
	in, err := decodeInstance(data)
	if err != nil {
		return nil, fmt.Errorf("eblow: %w", err)
	}
	return in, nil
}

// decodeInstance decodes and validates without the "eblow:" prefix, so both
// DecodeInstance and ReadInstance can add their own context exactly once.
func decodeInstance(data []byte) (*Instance, error) {
	var in Instance
	r := jsonlex.NewReader(data)
	err := in.ReadJSON(r)
	if err == nil {
		err = r.Mismatch()
	}
	if err != nil {
		return nil, fmt.Errorf("decoding instance: %w", err)
	}
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("invalid instance: %w", err)
	}
	return &in, nil
}

// WriteInstance saves an instance as JSON.
func WriteInstance(path string, in *Instance) error {
	var buf bytes.Buffer
	if err := EncodeInstance(&buf, in); err != nil {
		return err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("eblow: writing instance: %w", err)
	}
	return nil
}

// ReadInstance loads an instance from JSON and validates it.
func ReadInstance(path string) (*Instance, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("eblow: reading instance: %w", err)
	}
	in, err := decodeInstance(data)
	if err != nil {
		return nil, fmt.Errorf("eblow: reading %s: %w", path, err)
	}
	return in, nil
}
