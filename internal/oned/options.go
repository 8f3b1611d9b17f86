// Package oned implements the E-BLOW planner for the 1DOSP problem: the
// simplified ILP formulation (4) of the paper, the successive-rounding
// relaxation loop (Algorithm 1), the fast-convergence step (Algorithm 2),
// the dynamic-programming single-row refinement (Algorithm 3) and the
// post-swap / post-insertion stages, producing a row-structured stencil plan
// that minimizes the MCC writing time.
//
// Deviation from the paper: Algorithm 2 rounds the variables above Uth up
// and hands those between its lower threshold Lth and Uth to an ILP that
// maximises their summed profit. This planner keeps only the Uth pass; it
// has neither the ILP nor Lth. An exact 0/1 knapsack over the remaining
// capacity (convergeTail) decides every character still off the stencil. Summed profit is only a proxy for the
// maximum region time a plan is judged by, and on the paper's twelve 1D
// families the ILP left E-BLOW-1 behind E-BLOW-0 on four of them while
// costing about a quarter of a plan1d-shaped solve; without it E-BLOW-1 is
// behind on one (TestPaperFamiliesEBlow1VersusEBlow0 pins the table).
package oned

import (
	"runtime"
	"time"

	"eblow/internal/core"
)

// LPBackend selects how the LP relaxation of formulation (4) is solved in
// each successive-rounding iteration.
type LPBackend int

const (
	// StructuredLP solves the relaxation with the dedicated multiple-knapsack
	// greedy solver (package knapsack). This is the default: it exploits the
	// structure of formulation (5) and scales to MCC-sized instances.
	StructuredLP LPBackend = iota
	// SimplexLP solves the relaxation with the general sparse revised
	// simplex (package lp), every block from scratch. Intended for small
	// instances and for the ablation bench that compares the two backends.
	SimplexLP
)

func (b LPBackend) String() string {
	if b == SimplexLP {
		return "simplex"
	}
	return "structured"
}

// Options configures the E-BLOW 1D planner. The zero value is completed by
// Defaults(); the default parameter values are the ones reported in the
// paper (thinv = 0.9, Uth = 0.9, refinement pruning threshold 20).
type Options struct {
	// Thinv is the rounding threshold of Algorithm 1: every variable within
	// Thinv of the iteration maximum is rounded up.
	Thinv float64
	// Uth is the fast-convergence threshold of Algorithm 2: the variables
	// above Uth in the last relaxation are rounded up.
	Uth float64
	// PruneThreshold bounds the number of partial solutions kept per step of
	// the refinement dynamic program (Algorithm 3).
	PruneThreshold int

	// MaxIterations bounds the successive-rounding loop.
	MaxIterations int
	// MaxAssignPerIteration caps how many characters one rounding iteration
	// may fix. The structured LP backend returns nearly integral solutions,
	// so without a cap the whole stencil would be filled in one iteration
	// and the dynamic per-region profit update of Eqn. (6) would never get a
	// chance to rebalance the MCC regions. 0 means max(25, n/12).
	MaxAssignPerIteration int
	// ConvergenceFraction triggers the fast-convergence step: when one
	// rounding iteration assigns fewer than ConvergenceFraction * n
	// characters (and at least one iteration has run), rounding stops and
	// the Uth pass and the exact knapsack decide the remaining characters.
	// Set to 0 to only trigger on stalls.
	ConvergenceFraction float64

	// EnableFastConvergence and EnablePostInsertion distinguish E-BLOW-0
	// (both false) from E-BLOW-1 (both true); the paper's Fig. 11/12
	// ablation toggles exactly these two techniques.
	EnableFastConvergence bool
	EnablePostInsertion   bool
	// EnablePostSwap controls the greedy post-swap stage.
	EnablePostSwap bool

	// PostSwapCandidates bounds how many unselected characters the post-swap
	// stage considers (sorted by profit).
	PostSwapCandidates int
	// PostInsertCandidates bounds how many unselected characters the
	// post-insertion matching considers.
	PostInsertCandidates int

	// StaticProfit disables the dynamic per-region profit update of Eqn. (6)
	// and uses the selection-independent total reduction instead. Exposed for
	// the ablation benches; the paper's flow keeps it false.
	StaticProfit bool

	// Workers bounds the number of goroutines used for the parallel stages
	// (per-row DP refinement, per-region time/profit evaluation, and the
	// block-decomposed LP relaxation when RowGroups are set). 0 means one
	// worker per CPU; 1 forces the fully sequential flow. The planner
	// returns the same solution for every worker count.
	Workers int

	// RowGroups optionally pins bands of stencil rows to wafer regions, the
	// way each column cell of an MCC system owns its own stencil band: a
	// character is a candidate for a group's rows only if it repeats in at
	// least one of the group's regions. The capacity matrix of the LP
	// relaxation then becomes block-diagonal across disjoint row groups, and
	// the planner detects the blocks (union-find over character-row
	// candidacy) and solves them as independent sub-problems on the worker
	// pool, merged in block index order. Nil falls back to the instance's
	// own banding (core.Instance.RowGroups) when it has one; with neither,
	// the shared-stencil semantics of the paper apply: every character may
	// use every row and the relaxation is one monolithic problem.
	RowGroups []RowGroup

	// Backend selects the LP relaxation solver.
	Backend LPBackend

	// CollectTrace records per-iteration statistics (Figs. 5 and 6).
	CollectTrace bool
}

// RowGroup pins a band of stencil rows to a set of wafer regions (the
// stencil band of one MCC column cell). It is the core model's type: bands
// can live on the instance itself (serialized with it) or be passed
// per-solve through Options.RowGroups.
type RowGroup = core.RowGroup

// maxRowGroups bounds the number of row groups so per-character candidacy
// fits in one uint64 bitmask. It is the core model's cap, so instances that
// pass core validation never trip the solver-side check.
const maxRowGroups = core.MaxRowGroups

// Defaults returns the paper's parameter settings with E-BLOW-1 behaviour
// (fast convergence and post stages enabled).
func Defaults() Options {
	return Options{
		Thinv:                 0.9,
		Uth:                   0.9,
		PruneThreshold:        20,
		MaxIterations:         60,
		MaxAssignPerIteration: 0,
		ConvergenceFraction:   0.01,
		EnableFastConvergence: true,
		EnablePostInsertion:   true,
		EnablePostSwap:        true,
		PostSwapCandidates:    200,
		PostInsertCandidates:  200,
		Backend:               StructuredLP,
		CollectTrace:          false,
	}
}

// withDefaults fills zero fields of o with the default settings.
func (o Options) withDefaults() Options {
	d := Defaults()
	if o.Thinv <= 0 || o.Thinv > 1 {
		o.Thinv = d.Thinv
	}
	if o.Uth <= 0 {
		o.Uth = d.Uth
	}
	if o.PruneThreshold <= 0 {
		o.PruneThreshold = d.PruneThreshold
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = d.MaxIterations
	}
	if o.PostSwapCandidates <= 0 {
		o.PostSwapCandidates = d.PostSwapCandidates
	}
	if o.PostInsertCandidates <= 0 {
		o.PostInsertCandidates = d.PostInsertCandidates
	}
	if o.ConvergenceFraction <= 0 {
		o.ConvergenceFraction = d.ConvergenceFraction
	}
	return o
}

// workerCount resolves Options.Workers: 0 means one worker per CPU.
func (o Options) workerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Trace records per-iteration statistics of the successive-rounding loop;
// the benchmark harness uses it to regenerate Fig. 5 (unsolved characters per
// LP iteration) and Fig. 6 (distribution of the LP values in the last
// iteration).
type Trace struct {
	// UnsolvedPerIteration[k] is the number of still-unsolved characters
	// after rounding iteration k.
	UnsolvedPerIteration []int
	// AssignedPerIteration[k] is the number of characters assigned to rows
	// in iteration k.
	AssignedPerIteration []int
	// LastLPValues holds the per-character maximum fractional value in the
	// last LP before fast convergence (the histogram of Fig. 6).
	LastLPValues []float64
	// FastILPVariables is always 0: the fast-convergence step hands no
	// variables to an ILP any more (see the package doc). It stays until
	// the end-to-end benchmark stops reading it.
	FastILPVariables int
	// RelaxElapsed is the total wall-clock time spent solving LP relaxations
	// across all successive-rounding iterations (always recorded; the
	// end-to-end benchmark's layer probe reports it as oned.relax_ms).
	RelaxElapsed time.Duration
	// RelaxSolves and RelaxPivots count the LP block solves and their total
	// simplex iterations across the run (SimplexLP backend only).
	RelaxSolves int
	RelaxPivots int
	// FastILPPivots is always 0, like FastILPVariables, and stays for the
	// same reason.
	FastILPPivots int
	// UsedFastConvergence reports whether Algorithm 2 ran.
	UsedFastConvergence bool
}
