package pack2d

import (
	"eblow/internal/seqpair"
)

// Incremental evaluates the approximate packing (PackApprox semantics) of a
// sequence pair under single-swap moves without re-packing the whole
// floorplan. It caches the per-block positions of the last evaluation
// together with the Fenwick-tree state of both longest-weighted-common-
// subsequence passes; a swap invalidates only the Gamma- suffix starting at
// the earliest affected index, so Reevaluate rewinds the trees to that point
// (via per-step undo logs) and replays just the stale suffix. The results
// are bit-identical to a full PackApprox + InsideOutline evaluation: the
// replayed pass performs exactly the arithmetic of seqpair's lwcs on the
// same data.
//
// The evaluator owns the index mirrors (block -> position in Gamma+/Gamma-),
// so moves must be applied through SwapPos/SwapNeg/SwapBoth. After replacing
// the sequence pair wholesale (a Restore), call Reset.
//
// Incremental is not safe for concurrent use; every annealing restart owns
// its own evaluator.
type Incremental struct {
	sp     *seqpair.SeqPair
	blocks []Block
	outW   int
	outH   int

	sw, sh []int32 // shrunk dimensions, exactly as PackApprox computes them
	fw, fh []int32 // full block dimensions, for the inside-outline check
	posIdx []int32 // block -> index in Gamma+
	negPos []int   // block -> index in Gamma-

	x, y   []int32
	inside []bool

	ax, ay axis

	// dirtyFrom is the earliest Gamma- index whose cached position may be
	// stale; len(blocks) means the cache is clean.
	dirtyFrom int
}

// NewIncremental builds an evaluator for the sequence pair over the blocks
// inside an outlineW x outlineH outline. The caches start cold: the first
// Reevaluate performs one full packing pass.
func NewIncremental(sp *seqpair.SeqPair, blocks []Block, outlineW, outlineH int) *Incremental {
	n := len(blocks)
	if sp.Len() != n {
		panic("pack2d: sequence pair and block count mismatch")
	}
	inc := &Incremental{
		sp:     sp,
		blocks: blocks,
		outW:   outlineW,
		outH:   outlineH,
		sw:     make([]int32, n),
		sh:     make([]int32, n),
		fw:     make([]int32, n),
		fh:     make([]int32, n),
		posIdx: make([]int32, n),
		negPos: make([]int, n),
		x:      make([]int32, n),
		y:      make([]int32, n),
		inside: make([]bool, n),
		ax:     axis{tree: make([]int32, n+1), stepEnd: make([]int32, n)},
		ay:     axis{tree: make([]int32, n+1), stepEnd: make([]int32, n)},
	}
	for i, b := range blocks {
		w, h := shrunkDims(b)
		inc.sw[i], inc.sh[i] = int32(w), int32(h)
		inc.fw[i], inc.fh[i] = int32(b.W), int32(b.H)
	}
	inc.Reset()
	return inc
}

// SeqPair returns the sequence pair the evaluator operates on.
func (inc *Incremental) SeqPair() *seqpair.SeqPair { return inc.sp }

// Inside reports whether block b was fully inside the outline at the last
// Reevaluate.
func (inc *Incremental) Inside(b int) bool { return inc.inside[b] }

// X returns the cached approximate x position of block b.
func (inc *Incremental) X(b int) int { return int(inc.x[b]) }

// Y returns the cached approximate y position of block b.
func (inc *Incremental) Y(b int) int { return int(inc.y[b]) }

// Reset rebuilds the index mirrors from the sequence pair and marks every
// cached position stale, forcing the next Reevaluate to replay the full
// packing. Use it after the sequence pair was replaced wholesale. The cached
// inside flags are kept, so callers tracking flips across Reset stay
// consistent.
func (inc *Incremental) Reset() {
	for i, b := range inc.sp.Pos {
		inc.posIdx[b] = int32(i)
	}
	for i, b := range inc.sp.Neg {
		inc.negPos[b] = i
	}
	inc.ax.clear()
	inc.ay.clear()
	inc.dirtyFrom = 0
}

// SwapPos swaps Gamma+ positions i and j and marks the affected suffix dirty.
func (inc *Incremental) SwapPos(i, j int) {
	inc.sp.SwapPos(i, j)
	a, b := inc.sp.Pos[i], inc.sp.Pos[j]
	inc.posIdx[a], inc.posIdx[b] = int32(i), int32(j)
	inc.markDirty(min(inc.negPos[a], inc.negPos[b]))
}

// SwapNeg swaps Gamma- positions i and j and marks the affected suffix dirty.
func (inc *Incremental) SwapNeg(i, j int) {
	inc.sp.SwapNeg(i, j)
	a, b := inc.sp.Neg[i], inc.sp.Neg[j]
	inc.negPos[a], inc.negPos[b] = i, j
	inc.markDirty(min(i, j))
}

// SwapBoth exchanges blocks a and b in both sequences. The cached index
// mirrors make this O(1) where seqpair.SeqPair.SwapBoth scans both sequences.
func (inc *Incremental) SwapBoth(a, b int) {
	pa, pb := inc.posIdx[a], inc.posIdx[b]
	na, nb := inc.negPos[a], inc.negPos[b]
	inc.sp.SwapPos(int(pa), int(pb))
	inc.sp.SwapNeg(na, nb)
	inc.posIdx[a], inc.posIdx[b] = pb, pa
	inc.negPos[a], inc.negPos[b] = nb, na
	inc.markDirty(min(na, nb))
}

func (inc *Incremental) markDirty(k int) {
	if k < inc.dirtyFrom {
		inc.dirtyFrom = k
	}
}

// Reevaluate brings the cached positions in line with the sequence pair by
// replaying the packing passes from the earliest dirty Gamma- index, and
// appends to flips every block whose inside-outline status changed since the
// previous evaluation. It returns the (possibly grown) flips slice. The
// positions and inside flags it produces are bit-identical to
// InsideOutline(PackApprox(sp, blocks), blocks, outlineW, outlineH).
func (inc *Incremental) Reevaluate(flips []int) []int {
	n := len(inc.blocks)
	d := inc.dirtyFrom
	if d >= n {
		return flips
	}
	inc.ax.rewind(d)
	inc.ay.rewind(d)
	neg := inc.sp.Neg
	outW, outH := int32(inc.outW), int32(inc.outH)
	for t := d; t < n; t++ {
		b := neg[t]
		kx := inc.posIdx[b]
		var x int32
		if kx > 0 {
			x = inc.ax.prefixMax(kx - 1)
		}
		inc.x[b] = x
		inc.ax.update(t, kx, x+inc.sw[b])

		ky := int32(n-1) - kx
		var y int32
		if ky > 0 {
			y = inc.ay.prefixMax(ky - 1)
		}
		inc.y[b] = y
		inc.ay.update(t, ky, y+inc.sh[b])

		in := x+inc.fw[b] <= outW && y+inc.fh[b] <= outH
		if in != inc.inside[b] {
			inc.inside[b] = in
			flips = append(flips, b)
		}
	}
	inc.dirtyFrom = n
	return flips
}

// axis is one packing direction: a Fenwick max tree over the pass keys whose
// point updates are logged per pass step, so the tree can be rewound to the
// state it had before any given step and the pass replayed from there.
// Coordinates in this problem comfortably fit int32, which halves the cache
// footprint of the hot arrays; a log entry packs node index and previous
// value into one uint64.
type axis struct {
	tree    []int32
	log     []uint64 // node << 32 | previous value, for rewind
	stepEnd []int32  // stepEnd[t] = len(log) after step t's update
}

func (a *axis) clear() {
	for i := range a.tree {
		a.tree[i] = 0
	}
	a.log = a.log[:0]
}

// update raises the max at index i to v as pass step `step`, logging every
// node it actually changes. The nodes on a Fenwick update path cover nested
// ranges, so the first node already at >= v ends the walk: every further
// node stores the max of a superset of that node's range.
func (a *axis) update(step int, i, v int32) {
	tree := a.tree
	for i++; int(i) < len(tree); i += i & (-i) {
		old := tree[i]
		if old >= v {
			break
		}
		a.log = append(a.log, uint64(i)<<32|uint64(uint32(old)))
		tree[i] = v
	}
	a.stepEnd[step] = int32(len(a.log))
}

func (a *axis) prefixMax(i int32) int32 {
	tree := a.tree
	var best int32
	for i++; i > 0; i -= i & (-i) {
		if tree[i] > best {
			best = tree[i]
		}
	}
	return best
}

// rewind restores the tree to the state it had before pass step `step` by
// undoing the logged writes in reverse order.
func (a *axis) rewind(step int) {
	end := 0
	if step > 0 {
		end = int(a.stepEnd[step-1])
	}
	for k := len(a.log) - 1; k >= end; k-- {
		e := a.log[k]
		a.tree[e>>32] = int32(uint32(e))
	}
	a.log = a.log[:end]
}
