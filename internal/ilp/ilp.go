// Package ilp implements a parallel branch-and-bound solver for (mixed)
// integer linear programs on top of the simplex solver in package lp.
// Together the two packages replace the commercial solver used by the E-BLOW
// paper for the exact ILP formulations (3) and (7); package exact is its only
// caller.
//
// The solver uses best-bound node selection and most-fractional branching.
// A search has one stop signal, the caller's context, which decides when it
// stops (the exact OSP formulations are deliberately allowed to time out in
// the Table 5 experiment; that is the point of the comparison), and an
// optional node budget (Options.MaxNodes), which is deterministic work and
// so may decide what it returns.
//
// Node relaxations are evaluated by Options.Workers goroutines, each owning
// a private clone of the LP (see engine.go for the work-stealing round
// design). Status, Objective and Solution are bit-identical for every
// worker count, also when the node budget cuts the search; only the
// wall-clock time changes.
package ilp

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"eblow/internal/lp"
)

// Status describes the outcome of a branch-and-bound run.
type Status int

const (
	// Optimal means the incumbent is provably optimal (within the relative
	// gap optGap).
	Optimal Status = iota
	// Feasible means a feasible integral incumbent was found but the search
	// stopped early (node budget or a done context).
	Feasible
	// Infeasible means no integral solution exists.
	Infeasible
	// Unbounded means the LP relaxation is unbounded.
	Unbounded
	// Limit means the search stopped before any integral solution was found.
	Limit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case Limit:
		return "limit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Problem is an integer linear program: an LP plus integrality flags.
type Problem struct {
	LP      *lp.Problem
	Integer []bool
}

// NewBinaryProblem builds a problem where the listed variables are binary
// (integral with bounds [0,1]); the remaining variables stay continuous.
func NewBinaryProblem(p *lp.Problem, binaryVars []int) *Problem {
	integer := make([]bool, p.NumVars())
	for _, v := range binaryVars {
		integer[v] = true
		p.SetBounds(v, 0, 1)
	}
	return &Problem{LP: p, Integer: integer}
}

// Options controls the search.
type Options struct {
	// MaxNodes bounds the number of dealt nodes (0 = no limit): nodes the
	// search hands out for evaluation, counted like Result.Nodes. The count
	// is the same at every worker count, so a search the budget cuts still
	// returns a bit-identical Status, Objective and Solution at any Workers.
	MaxNodes int
	// Maximize must match the LP objective sense. It defaults to true when
	// constructed through Maximize()/Minimize() helpers; Solve reads the
	// sense from this flag because lp.Problem does not expose it.
	Maximize bool
	// Workers is the number of goroutines evaluating node relaxations, each
	// on its own clone of the LP (0 = one per CPU, 1 = sequential). The
	// returned Status, Objective and Solution are bit-identical for every
	// worker count, and so is Nodes, which counts dealt nodes, unless the
	// context stops the search.
	Workers int
	// ColdLP disables warm starts: every node relaxation is solved from
	// scratch instead of from its parent's optimal basis. The search trace
	// is identical either way (the LP optimum is basis-independent); the
	// cold path is the reference the warm-start tests compare pivot counts
	// and traces against.
	ColdLP bool
}

// Result is the outcome of a solve.
type Result struct {
	Status    Status
	Objective float64
	X         []float64
	// Nodes counts the dealt nodes: every open node a round hands out for
	// evaluation, including those a live incumbent then lets the round skip
	// and those a done context leaves unevaluated. Nodes the incumbent
	// prunes before they are dealt do not count. Unless the context stops
	// the search, the count is the same at every worker count.
	Nodes     int
	BestBound float64
	Elapsed   time.Duration
	// LPPivots sums the simplex iterations of every merged node
	// relaxation. Like Nodes it is deterministic at Workers=1; across
	// worker counts it may differ (skipped nodes never solve their LP)
	// even though the result never does.
	LPPivots int
}

// ErrBadProblem reports a structurally invalid problem.
var ErrBadProblem = errors.New("ilp: invalid problem")

const intTol = 1e-6

// optGap is the relative optimality gap within which an incumbent prunes a
// node and counts as optimal.
const optGap = 1e-6

// Solve runs parallel branch and bound. The LP inside p is used as a
// read-only template: every worker solves node relaxations on its own clone,
// so p is never mutated (callers may reuse it concurrently as long as they
// do not mutate it either). A done context stops the search: the best
// incumbent found so far (if any) is returned with a Feasible/Limit status.
// Which incumbent that is depends on when the context fired; a search cut
// by Options.MaxNodes instead returns the same one at every worker count.
func Solve(ctx context.Context, p *Problem, opt Options) (*Result, error) {
	if p == nil || p.LP == nil || len(p.Integer) != p.LP.NumVars() {
		return nil, fmt.Errorf("%w: integrality flags do not match LP", ErrBadProblem)
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > maxBatch {
		// A round never evaluates more than maxBatch nodes, so extra workers
		// could never run — and each one costs a full LP clone up front. The
		// cap also keeps an absurd caller-supplied count (the job service
		// passes Params.Workers straight from the wire) from allocating
		// clones without bound.
		workers = maxBatch
	}
	start := time.Now()

	// The context's done channel interrupts the per-worker simplex runs
	// between pivots, not just between nodes: a single node relaxation of a
	// big formulation can run for a long time, and cancellation should not
	// wait it out.
	done := ctx.Done()

	e := newEngine(p, opt, workers, done)

	sign := 1.0
	if !opt.Maximize {
		sign = -1
	}
	res := &Result{Status: Limit, Objective: sign * math.Inf(-1), BestBound: sign * math.Inf(1)}

	for e.queue.Len() > 0 && !e.rootUnbounded {
		if stopped(done) {
			break
		}
		limit := maxBatch
		if opt.MaxNodes > 0 {
			if remaining := opt.MaxNodes - e.nodes; remaining < limit {
				limit = remaining
			}
			if limit <= 0 {
				break
			}
		}
		batch := e.nextBatch(limit)
		if len(batch) == 0 {
			break // the incumbent pruned the whole frontier
		}
		e.nodes += len(batch)
		results, skipped := e.evaluate(batch, done)
		// Merge every slot in batch order even when interrupted mid-round:
		// results already paid for must not be thrown away, and the order
		// keeps the trace deterministic.
		for i, nd := range batch {
			switch {
			case skipped[i]:
				// Pruned against an incumbent published mid-round: the
				// strict bound comparison guarantees the merge would have
				// discarded the evaluated result too.
			case results[i] == nil:
				// Not evaluated before the stop fired: still an open node.
				heap.Push(&e.queue, nd)
			default:
				e.merge(nd, results[i])
			}
		}
	}

	res.Nodes = e.nodes
	res.LPPivots = e.lpIters
	res.Elapsed = time.Since(start)
	if e.rootUnbounded {
		res.Status = Unbounded
		return res, nil
	}
	// Open nodes the incumbent prunes are explored as far as the proof
	// goes: a search stopped with only those left has finished. The heap
	// pops the best bound first and pruning is monotone in the bound, so
	// the loop ends at the first node that could still hold a better plan.
	for e.queue.Len() > 0 && e.prunable(e.queue[0].bound) {
		heap.Pop(&e.queue)
	}
	finished := e.queue.Len() == 0 && !e.dropped
	if e.haveInc {
		res.X = e.incumbent
		res.Objective = e.incObj
		if finished {
			res.Status = Optimal
		} else {
			// An open node, or one dropped at its LP pivot budget or by an
			// interrupt, may hide a better plan, so the incumbent is only
			// Feasible, not proven.
			res.Status = Feasible
		}
		res.BestBound = res.Objective
		// Tighten the reported bound from the remaining open nodes.
		for _, nd := range e.queue {
			b := nd.bound
			if !opt.Maximize {
				b = -b
			}
			if opt.Maximize && b > res.BestBound {
				res.BestBound = b
			}
			if !opt.Maximize && b < res.BestBound {
				res.BestBound = b
			}
		}
		return res, nil
	}
	// An emptied queue only proves infeasibility when the whole tree was
	// genuinely explored: an interrupt or a node dropped at its LP pivot
	// budget leaves the run inconclusive (Status stays Limit).
	if finished {
		res.Status = Infeasible
	}
	return res, nil
}
