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
)

// The paper's parameter settings of the 1D planner.
const (
	// thinv is the rounding threshold of Algorithm 1: every variable within
	// thinv of the iteration maximum is rounded up.
	thinv = 0.9
	// uth is the fast-convergence threshold of Algorithm 2: the variables
	// above uth in the last relaxation are rounded up.
	uth = 0.9
	// pruneThreshold bounds the number of partial solutions kept per step
	// of the refinement dynamic program (Algorithm 3).
	pruneThreshold = 20
	// maxIterations bounds the successive-rounding loop.
	maxIterations = 60
	// convergenceFraction triggers the fast-convergence step: when one
	// rounding iteration after the first assigns fewer than
	// convergenceFraction * n characters (at least 2), rounding stops and
	// the uth pass and the exact knapsack decide the remaining characters.
	convergenceFraction = 0.01
	// postSwapCandidates and postInsertCandidates bound how many unselected
	// characters (by profit) the post-swap stage and the post-insertion
	// matching consider.
	postSwapCandidates   = 200
	postInsertCandidates = 200
)

// Options configures the E-BLOW 1D planner. Defaults() returns the paper's
// flow (E-BLOW-1); the planner's numeric parameters are the constants
// above. Row bands come from the instance (core.Instance.RowGroups).
type Options struct {
	// EnableFastConvergence and EnablePostInsertion distinguish E-BLOW-0
	// (both false) from E-BLOW-1 (both true); the paper's Fig. 11/12
	// ablation toggles exactly these two techniques.
	EnableFastConvergence bool
	EnablePostInsertion   bool
	// EnablePostSwap controls the greedy post-swap stage.
	EnablePostSwap bool

	// Workers bounds the number of goroutines used for the parallel stages
	// (per-row DP refinement, per-region time/profit evaluation, and the
	// block-decomposed LP relaxation of a banded instance). 0 means one
	// worker per CPU; 1 forces the fully sequential flow. The planner
	// returns the same solution for every worker count.
	Workers int

	// CollectTrace records per-iteration statistics (Figs. 5 and 6).
	CollectTrace bool
}

// Defaults returns the paper's flow: E-BLOW-1, with fast convergence and
// both post stages enabled.
func Defaults() Options {
	return Options{
		EnableFastConvergence: true,
		EnablePostInsertion:   true,
		EnablePostSwap:        true,
	}
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
	// RelaxPivots is always 0: the relaxation is the structured knapsack,
	// which makes no simplex pivots. It stays until the end-to-end benchmark
	// stops reading it.
	RelaxPivots int
	// FastILPPivots is always 0, like FastILPVariables, and stays for the
	// same reason.
	FastILPPivots int
	// UsedFastConvergence reports whether Algorithm 2 ran.
	UsedFastConvergence bool
}
