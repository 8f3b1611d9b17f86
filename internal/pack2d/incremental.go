package pack2d

import (
	"eblow/internal/seqpair"
)

// Incremental evaluates the approximate packing (PackApprox semantics) of a
// sequence pair under single-swap moves without re-packing the whole
// floorplan. It caches the per-block positions of the last evaluation; a
// swap invalidates only the Gamma- suffix starting at the earliest affected
// index. Reevaluate rebuilds the Fenwick trees of both longest-weighted-
// common-subsequence passes for the clean prefix from the cached positions
// (updates only, no queries) and replays just the stale suffix. A Fenwick
// max tree's contents depend only on the set of (key, value) pairs inserted,
// so the results are bit-identical to a full PackApprox + InsideOutline
// evaluation: the replayed pass performs exactly the arithmetic of seqpair's
// lwcs on the same data.
//
// The evaluator owns the index mirrors (block -> position in Gamma+/Gamma-),
// so moves must be applied through SwapPos/SwapNeg/SwapBoth. After replacing
// the sequence pair wholesale (a Restore), call Reset.
//
// Incremental is not safe for concurrent use; every annealing restart owns
// its own evaluator.
type Incremental struct {
	sp   *seqpair.SeqPair
	outW int32
	outH int32

	dims   []dims
	posIdx []int32 // block -> index in Gamma+
	negPos []int   // block -> index in Gamma-

	x, y   []int32
	inside []bool

	ax, ay axis

	// dirtyFrom is the earliest Gamma- index whose cached position may be
	// stale; len(dims) means the cache is clean.
	dirtyFrom int
}

// dims holds one block's shrunk dimensions, exactly as PackApprox computes
// them, and its full dimensions for the inside-outline check. Coordinates in
// this problem comfortably fit int32, which halves the cache footprint of
// the hot arrays.
type dims struct{ sw, sh, fw, fh int32 }

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
		outW:   int32(outlineW),
		outH:   int32(outlineH),
		dims:   make([]dims, n),
		posIdx: make([]int32, n),
		negPos: make([]int, n),
		x:      make([]int32, n),
		y:      make([]int32, n),
		inside: make([]bool, n),
		ax:     make(axis, n+1),
		ay:     make(axis, n+1),
	}
	for i, b := range blocks {
		w, h := shrunkDims(b)
		inc.dims[i] = dims{int32(w), int32(h), int32(b.W), int32(b.H)}
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
// rebuilding both Fenwick trees from the cached positions of the clean
// Gamma- prefix and replaying the packing passes from the earliest dirty
// index, and appends to flips every block whose inside-outline status
// changed since the previous evaluation. It returns the (possibly grown)
// flips slice. The positions and inside flags it produces are bit-identical
// to InsideOutline(PackApprox(sp, blocks), blocks, outlineW, outlineH).
func (inc *Incremental) Reevaluate(flips []int) []int {
	n := len(inc.dims)
	d := inc.dirtyFrom
	if d >= n {
		return flips
	}
	ax, ay := inc.ax, inc.ay
	clear(ax)
	clear(ay)
	last := int32(n - 1)
	neg := inc.sp.Neg
	for _, b := range neg[:d] {
		kx := inc.posIdx[b]
		ax.update(kx, inc.x[b]+inc.dims[b].sw)
		ay.update(last-kx, inc.y[b]+inc.dims[b].sh)
	}
	for _, b := range neg[d:] {
		kx := inc.posIdx[b]
		dm := inc.dims[b]
		x := ax.below(kx)
		inc.x[b] = x
		ax.update(kx, x+dm.sw)

		ky := last - kx
		y := ay.below(ky)
		inc.y[b] = y
		ay.update(ky, y+dm.sh)

		in := x+dm.fw <= inc.outW && y+dm.fh <= inc.outH
		if in != inc.inside[b] {
			inc.inside[b] = in
			flips = append(flips, b)
		}
	}
	inc.dirtyFrom = n
	return flips
}

// axis is one packing direction: a Fenwick max tree over the pass keys,
// 1-based (node 0 is unused).
type axis []int32

// update raises the max at key k to v. The nodes on a Fenwick update path
// cover nested ranges, so the first node already at >= v ends the walk:
// every further node stores the max of a superset of that node's range.
func (a axis) update(k, v int32) {
	for i := int(k) + 1; i < len(a); i += i & -i {
		if a[i] >= v {
			break
		}
		a[i] = v
	}
}

// below returns the max over keys strictly below k (0 when k is 0).
func (a axis) below(k int32) int32 {
	var best int32
	for i := int(k); i > 0; i &= i - 1 {
		best = max(best, a[i])
	}
	return best
}
