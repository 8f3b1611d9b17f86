package ilp

import (
	"container/heap"
	"math"
	"sync"
	"sync/atomic"

	"eblow/internal/lp"
)

// The search core is a round-based parallel best-bound branch and bound.
//
// Determinism is the design constraint: ilp.Solve must return bit-identical
// Status/Objective/Solution for Workers=1 and Workers=N, because the planners
// above it promise worker-count-independent plans. Asynchronous work stealing
// alone cannot give that (which optimum is found first depends on timing), so
// the engine fixes the *search trace* instead and parallelizes only the pure
// part:
//
//   - The frontier is one global best-bound heap ordered by (bound, seq),
//     where seq is a node id assigned in deterministic merge order. Heap
//     content evolves only in the merge step, never concurrently.
//   - Each round pops a batch of open nodes (skipping ones the incumbent
//     already prunes). The batch size is a fixed constant — deliberately NOT
//     a function of Workers — so the set of LP relaxations evaluated per
//     round is identical for every worker count.
//   - The batch is dealt into per-worker deques; workers drain their own
//     deque and steal from the others when empty. Each worker solves its
//     node relaxations on a private lp.Problem clone (per-worker simplex
//     state; the Stop channel is shared so cancellation interrupts all of
//     them mid-pivot). LP solving is a pure function of the node, so WHO
//     evaluates a node cannot change WHAT it evaluates to.
//   - After a barrier, results are merged sequentially in batch (seq) order:
//     incumbent updates, pruning and branching replay exactly the sequential
//     decision sequence. The merge rule is deterministic — a candidate
//     replaces the incumbent only when its objective is strictly better, so
//     among equal-objective optima the earliest node in the fixed
//     (bound, seq) order wins.
//
// The incumbent objective is mirrored in an atomic so batch formation and
// any future in-round consumers read it lock-free; within a round it is
// frozen (workers never publish from the side), which is what keeps the
// trace worker-count independent.

// maxBatch is the number of open nodes evaluated per round. It trades
// parallelism (a round is the unit of fan-out, so it should comfortably
// exceed the worker count) against speculation (nodes evaluated in the same
// round cannot prune each other until the merge). It must stay independent
// of Options.Workers: the fixed batch size is what makes the search trace —
// and therefore the result — bit-identical for every worker count.
const maxBatch = 64

type node struct {
	seq    uint64 // deterministic id, assigned in merge order
	bounds []boundChange
	bound  float64 // LP relaxation value at the parent (sign-adjusted, optimistic)
	depth  int
	// basis is the parent relaxation's optimal basis (nil at the root,
	// which always solves cold). A child differs from its parent by one
	// bound, so the parent basis is dual-feasible for the child and the
	// warm re-solve needs a handful of dual pivots instead of a full cold
	// solve. The pointer is shared between siblings and never mutated.
	basis *lp.Basis
}

type boundChange struct {
	v      int
	lo, hi float64
}

// nodeQueue is a max-heap on the optimistic bound (bounds are stored
// pre-negated for minimization so max-heap is always right), with ties going
// to the earlier node id. The seq tiebreak pins the pop order completely,
// which the deterministic merge relies on.
type nodeQueue []*node

func (q nodeQueue) Len() int { return len(q) }
func (q nodeQueue) Less(i, j int) bool {
	if q[i].bound != q[j].bound {
		return q[i].bound > q[j].bound
	}
	return q[i].seq < q[j].seq
}
func (q nodeQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *nodeQueue) Push(x interface{}) { *q = append(*q, x.(*node)) }
func (q *nodeQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return it
}

// engine is the working state of one branch-and-bound run.
type engine struct {
	p   *Problem
	opt Options
	n   int

	origLo, origHi []float64
	clones         []*lp.Problem // per-worker simplex state

	queue   nodeQueue
	nextSeq uint64

	incumbent []float64
	incObj    float64
	haveInc   bool
	// incBound mirrors the sign-adjusted incumbent objective for lock-free
	// reads (math.Inf(-1) until an incumbent exists).
	incBound atomic.Value

	nodes         int // dealt nodes (see Result.Nodes)
	lpIters       int // simplex pivots across merged node relaxations
	dropped       bool
	rootUnbounded bool
}

func newEngine(p *Problem, opt Options, workers int, stop <-chan struct{}) *engine {
	n := p.LP.NumVars()
	e := &engine{p: p, opt: opt, n: n}
	e.origLo = make([]float64, n)
	e.origHi = make([]float64, n)
	for j := 0; j < n; j++ {
		e.origLo[j] = p.LP.LowerBound(j)
		e.origHi[j] = p.LP.UpperBound(j)
	}
	// Per-worker clones instead of the historical mutate-and-restore of the
	// caller's problem: each worker owns its bounds and its simplex
	// workspace, which every node it solves reuses, the caller's lp.Problem
	// is never touched, and the shared Stop channel interrupts every clone.
	e.clones = make([]*lp.Problem, workers)
	for w := range e.clones {
		e.clones[w] = p.LP.Clone()
		e.clones[w].Stop = stop
	}
	e.incBound.Store(math.Inf(-1))
	heap.Push(&e.queue, &node{seq: 0, bound: math.Inf(1)})
	e.nextSeq = 1
	return e
}

// prunable reports whether the incumbent already rules the node out, within
// the relative optimality gap (bound is sign-adjusted).
func (e *engine) prunable(bound float64) bool {
	if !e.haveInc || math.IsInf(bound, 1) {
		return false
	}
	if e.opt.Maximize {
		return bound <= e.incObj+optGap*math.Abs(e.incObj)+1e-9
	}
	return -bound >= e.incObj-optGap*math.Abs(e.incObj)-1e-9
}

// better reports whether objective a strictly beats b in the problem sense.
func (e *engine) better(a, b float64) bool {
	if e.opt.Maximize {
		return a > b+1e-12
	}
	return a < b-1e-12
}

// nextBatch pops up to limit non-prunable open nodes, in the deterministic
// (bound, seq) frontier order.
func (e *engine) nextBatch(limit int) []*node {
	var batch []*node
	for len(batch) < limit && e.queue.Len() > 0 {
		nd := heap.Pop(&e.queue).(*node)
		if e.prunable(nd.bound) {
			continue
		}
		batch = append(batch, nd)
	}
	return batch
}

// solveNode solves the node's LP relaxation on the given per-worker clone:
// reset to the root bounds, apply the node's branching decisions, solve —
// warm-started from the parent's basis unless Options.ColdLP. The node's
// relaxation is a pure function of (bounds, parent basis), and bases
// propagate through the deterministic merge order, so the search trace is
// bit-identical at every worker count. Warm vs cold agreement (same
// objective always; same vertex on the golden families) is gated by the
// warm-start tests — see docs/INVARIANTS.md.
func (e *engine) solveNode(clone *lp.Problem, nd *node) *lp.Result {
	for j := 0; j < e.n; j++ {
		clone.SetBounds(j, e.origLo[j], e.origHi[j])
	}
	for _, bc := range nd.bounds {
		clone.SetBounds(bc.v, bc.lo, bc.hi)
	}
	if e.opt.ColdLP {
		return lp.Solve(clone)
	}
	return lp.SolveWarm(clone, nd.basis)
}

// deque is one worker's share of a round: a contiguous slice of batch
// indexes drained through an atomic cursor, so idle workers can steal the
// remainder of a busy worker's deque without locks.
type deque struct {
	lo, hi int
	next   atomic.Int64 // offset from lo of the next unclaimed index
}

// take claims the next batch index of the deque, returning ok=false once it
// is drained. Owner and thieves share the same claim path, so every index is
// evaluated exactly once.
func (d *deque) take() (int, bool) {
	pos := d.lo + int(d.next.Add(1)) - 1
	if pos >= d.hi {
		return 0, false
	}
	return pos, true
}

// skipLive reports whether a freshly published incumbent already dominates
// the node, so its LP relaxation need not be solved at all. The comparison
// is deliberately strict (no gap, no epsilon): a strictly smaller bound
// guarantees the deterministic merge would prune the node's result anyway
// (see evalNode), so skipping cannot change Status/Objective/Solution — it
// only saves the simplex run. Within a round this is what keeps pruning
// aggressive across workers: one worker's incumbent kills the queued nodes
// of all the others.
func (e *engine) skipLive(nd *node) bool {
	return nd.bound < e.incBound.Load().(float64)
}

// publish lifts the shared atomic incumbent bound to adj if it improves it.
func (e *engine) publish(adj float64) {
	for {
		cur := e.incBound.Load().(float64)
		if adj <= cur {
			return
		}
		if e.incBound.CompareAndSwap(cur, adj) {
			return
		}
	}
}

// integral reports whether x satisfies every integrality flag.
func (e *engine) integral(x []float64) bool {
	for j, isInt := range e.p.Integer {
		if !isInt {
			continue
		}
		f := x[j] - math.Floor(x[j])
		if math.Min(f, 1-f) > intTol {
			return false
		}
	}
	return true
}

// evalNode solves one batch slot on the given clone: it either skips the
// node against the live incumbent bound (skipped[idx]) or solves its LP and,
// when the relaxation comes back integral, publishes the objective so the
// other workers start skipping immediately.
func (e *engine) evalNode(clone *lp.Problem, batch []*node, idx int, results []*lp.Result, skipped []bool) {
	if e.skipLive(batch[idx]) {
		skipped[idx] = true
		return
	}
	res := e.solveNode(clone, batch[idx])
	results[idx] = res
	if res.Status == lp.Optimal && e.integral(res.X) {
		e.publish(signAdjust(res.Objective, e.opt.Maximize))
	}
}

// evaluate solves the LP relaxation of every batch node, spreading the work
// over the per-worker deques with stealing. Slot i of both output slices
// belongs to batch[i] alone; a slot with nil result and skipped false means
// the node was not evaluated because the stop channel fired first (the
// caller re-enqueues it).
func (e *engine) evaluate(batch []*node, stop <-chan struct{}) ([]*lp.Result, []bool) {
	results := make([]*lp.Result, len(batch))
	skipped := make([]bool, len(batch))
	workers := len(e.clones)
	if workers > len(batch) {
		workers = len(batch)
	}
	if workers <= 1 {
		for i := range batch {
			if stopped(stop) {
				break
			}
			e.evalNode(e.clones[0], batch, i, results, skipped)
		}
		return results, skipped
	}

	// Deal the batch into contiguous per-worker deques (cache-friendly and
	// deterministic, though the assignment does not matter for results).
	deques := make([]*deque, workers)
	chunk := (len(batch) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(batch) {
			hi = len(batch)
		}
		deques[w] = &deque{lo: lo, hi: hi}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			clone := e.clones[w]
			for {
				if stopped(stop) {
					return
				}
				idx, ok := deques[w].take()
				if !ok {
					// Own deque drained: steal from the other workers'
					// deques until every one is empty.
					for off := 1; off < workers && !ok; off++ {
						idx, ok = deques[(w+off)%workers].take()
					}
					if !ok {
						return
					}
				}
				e.evalNode(clone, batch, idx, results, skipped)
			}
		}(w)
	}
	wg.Wait()
	return results, skipped
}

// merge folds one evaluated node into the search state: prune or branch,
// and update the incumbent under the deterministic merge rule (strictly
// better objective wins; equal objectives keep the incumbent of the
// earlier node in (bound, seq) order). Callers invoke merge in batch
// order, which makes the whole search trace worker-count independent.
func (e *engine) merge(nd *node, lpRes *lp.Result) {
	e.lpIters += lpRes.Iters
	switch lpRes.Status {
	case lp.Infeasible:
		return
	case lp.Unbounded:
		if nd.depth == 0 {
			e.rootUnbounded = true
		}
		return
	case lp.IterationLimit:
		// The node hit its pivot budget (or a cancellation interrupted the
		// simplex): it was not fully evaluated, and the subtree it guards
		// is lost — the final status can no longer claim a proof.
		e.dropped = true
		return
	}

	obj := lpRes.Objective
	// Prune against the incumbent as of this merge slot: a node evaluated
	// speculatively in the same round as a better incumbent dies here, just
	// as it would have died before evaluation in a purely sequential run.
	if e.haveInc && !e.better(obj, e.incObj) {
		return
	}

	// Find the most fractional integer variable.
	branchVar := -1
	bestFrac := intTol
	for j := 0; j < e.n; j++ {
		if !e.p.Integer[j] {
			continue
		}
		f := lpRes.X[j] - math.Floor(lpRes.X[j])
		dist := math.Min(f, 1-f)
		if dist > bestFrac {
			bestFrac = dist
			branchVar = j
		}
	}

	if branchVar < 0 {
		// Integral solution strictly better than the incumbent: accept.
		xr := make([]float64, e.n)
		for j := 0; j < e.n; j++ {
			if e.p.Integer[j] {
				xr[j] = math.Round(lpRes.X[j])
			} else {
				xr[j] = lpRes.X[j]
			}
		}
		e.incumbent = xr
		e.incObj = obj
		e.haveInc = true
		e.incBound.Store(signAdjust(obj, e.opt.Maximize))
		return
	}

	// Branch; children get their deterministic ids in merge order and
	// share their parent's optimal basis as the warm start (nil when the
	// backend does not produce one or ColdLP is set).
	xv := lpRes.X[branchVar]
	lo, hi := e.origLo[branchVar], e.origHi[branchVar]
	b := signAdjust(obj, e.opt.Maximize)
	var wb *lp.Basis
	if !e.opt.ColdLP {
		wb = lpRes.Basis
	}
	loNode := &node{seq: e.nextSeq, bounds: appendBound(nd.bounds, boundChange{branchVar, lo, math.Floor(xv)}), bound: b, depth: nd.depth + 1, basis: wb}
	hiNode := &node{seq: e.nextSeq + 1, bounds: appendBound(nd.bounds, boundChange{branchVar, math.Ceil(xv), hi}), bound: b, depth: nd.depth + 1, basis: wb}
	e.nextSeq += 2
	heap.Push(&e.queue, loNode)
	heap.Push(&e.queue, hiNode)
}

// stopped polls a stop channel without blocking.
func stopped(stop <-chan struct{}) bool {
	if stop == nil {
		return false
	}
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// signAdjust stores bounds so the max-heap always pops the most promising
// node first regardless of the optimization direction.
func signAdjust(obj float64, maximize bool) float64 {
	if maximize {
		return obj
	}
	return -obj
}

func appendBound(bs []boundChange, bc boundChange) []boundChange {
	out := make([]boundChange, len(bs)+1)
	copy(out, bs)
	out[len(bs)] = bc
	return out
}
