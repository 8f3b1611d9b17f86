// Package pack2d evaluates sequence-pair floorplans of OSP characters with
// blank sharing. It provides two evaluations:
//
//   - PackApprox: the fast O(n log n) packing used inside the simulated
//     annealing loop. Blocks are shrunk by half of their blank margins, which
//     approximates the average amount of blank two neighbours can share.
//   - PackExact: the exact O(n^2) evaluation used to legalise the final
//     floorplan. For every ordered pair (i left-of j) it enforces
//     x_j >= x_i + w_i - min(blankRight_i, blankLeft_j), the precise pairwise
//     spacing rule of the OSP problem, and analogously in y. Placements
//     produced by PackExact always satisfy core.Solution.Validate2D for the
//     characters that remain inside the stencil outline.
//
// PackExactInto and InsideOutlineInto are the workspace forms of PackExact
// and InsideOutline: they write into caller-owned buffers, so a planner that
// reuses its buffers legalises without allocating. PackExact and
// InsideOutline are PackExactInto and InsideOutlineInto on fresh storage.
package pack2d

import (
	"slices"

	"eblow/internal/seqpair"
)

// Block is a rectangle (a character or a cluster of characters) with blank
// margins on its four sides.
type Block struct {
	W, H                           int
	BlankL, BlankR, BlankT, BlankB int
}

// Placement is the result of a packing evaluation.
type Placement struct {
	X, Y          []int
	Width, Height int
}

// PackApprox packs blocks shrunk by half their blanks using the plain
// sequence-pair longest-common-subsequence evaluation. The resulting
// positions are optimistic (patterns may end up slightly too close); use
// PackExact to legalise a floorplan before reporting it.
func PackApprox(sp *seqpair.SeqPair, blocks []Block) *Placement {
	shrunk := make([]seqpair.Block, len(blocks))
	for i, b := range blocks {
		w, h := shrunkDims(b)
		shrunk[i] = seqpair.Block{W: w, H: h}
	}
	p := seqpair.Pack(sp, shrunk)
	return &Placement{X: p.X, Y: p.Y, Width: p.Width, Height: p.Height}
}

// shrunkDims returns a block's dimensions reduced by half its blank margins
// (clamped to 1), the approximation PackApprox packs with. The incremental
// evaluator shares this helper because its bit-identical-to-PackApprox
// guarantee depends on the two never diverging.
func shrunkDims(b Block) (int, int) {
	w := b.W - (b.BlankL+b.BlankR)/2
	h := b.H - (b.BlankT+b.BlankB)/2
	if w < 1 {
		w = 1
	}
	if h < 1 {
		h = 1
	}
	return w, h
}

// PackExact computes the minimal legal positions realising the sequence pair
// with exact pairwise blank sharing. Complexity is O(n^2).
func PackExact(sp *seqpair.SeqPair, blocks []Block) *Placement {
	pl := new(Placement)
	PackExactInto(pl, make([]int, len(blocks)), sp, blocks)
	return pl
}

// PackExactInto is PackExact into caller-owned storage: it overwrites pl,
// reusing the capacity of pl.X and pl.Y, and uses idx, which must hold at
// least len(blocks) elements, as its Gamma+ index. It writes every element
// before it reads it, so the placement does not depend on what the storage
// held.
func PackExactInto(pl *Placement, idx []int, sp *seqpair.SeqPair, blocks []Block) {
	n := len(blocks)
	if sp.Len() != n {
		panic("pack2d: sequence pair and block count mismatch")
	}
	pl.X, pl.Y = slices.Grow(pl.X[:0], n)[:n], slices.Grow(pl.Y[:0], n)[:n]
	pl.Width, pl.Height = 0, 0
	posIdx := idx[:n]
	for i, b := range sp.Pos {
		posIdx[b] = i
	}

	// Process blocks in Gamma- order: every horizontal or vertical
	// predecessor of a block appears earlier in Gamma-, so a single pass
	// computes the longest-path positions.
	for _, j := range sp.Neg {
		x, y := 0, 0
		for _, i := range sp.Neg {
			if i == j {
				break
			}
			if posIdx[i] < posIdx[j] { // i left of j
				share := min(blocks[i].BlankR, blocks[j].BlankL)
				if v := pl.X[i] + blocks[i].W - share; v > x {
					x = v
				}
			} else { // i below j: after j in Gamma+, before it in Gamma-
				share := min(blocks[i].BlankT, blocks[j].BlankB)
				if v := pl.Y[i] + blocks[i].H - share; v > y {
					y = v
				}
			}
		}
		pl.X[j], pl.Y[j] = x, y
		if r := x + blocks[j].W; r > pl.Width {
			pl.Width = r
		}
		if t := y + blocks[j].H; t > pl.Height {
			pl.Height = t
		}
	}
}

// InsideOutline reports which blocks of a placement lie fully inside a
// W x H outline anchored at the origin.
func InsideOutline(pl *Placement, blocks []Block, w, h int) []bool {
	return InsideOutlineInto(nil, pl, blocks, w, h)
}

// InsideOutlineInto is InsideOutline into inside, whose capacity it reuses;
// it returns the flags, one per block.
func InsideOutlineInto(inside []bool, pl *Placement, blocks []Block, w, h int) []bool {
	inside = slices.Grow(inside[:0], len(blocks))[:len(blocks)]
	for i, b := range blocks {
		inside[i] = pl.X[i] >= 0 && pl.Y[i] >= 0 && pl.X[i]+b.W <= w && pl.Y[i]+b.H <= h
	}
	return inside
}
