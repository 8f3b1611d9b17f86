package pack2d

import (
	"math/rand"
	"testing"

	"eblow/internal/seqpair"
)

func randomBlocks(rng *rand.Rand, n int) []Block {
	blocks := make([]Block, n)
	for i := range blocks {
		w := 10 + rng.Intn(40)
		h := 10 + rng.Intn(40)
		blocks[i] = Block{
			W: w, H: h,
			BlankL: rng.Intn(w/2 + 1), BlankR: rng.Intn(w/2 + 1),
			BlankT: rng.Intn(h/2 + 1), BlankB: rng.Intn(h/2 + 1),
		}
	}
	return blocks
}

// checkAgainstFull compares the incremental caches with a from-scratch
// PackApprox + InsideOutline evaluation of the same sequence pair.
func checkAgainstFull(t *testing.T, inc *Incremental, sp *seqpair.SeqPair, blocks []Block, outW, outH int) {
	t.Helper()
	pl := PackApprox(sp, blocks)
	inside := InsideOutline(pl, blocks, outW, outH)
	for b := range blocks {
		if inc.X(b) != pl.X[b] || inc.Y(b) != pl.Y[b] {
			t.Fatalf("block %d position (%d,%d), full repack has (%d,%d)",
				b, inc.X(b), inc.Y(b), pl.X[b], pl.Y[b])
		}
		if inc.Inside(b) != inside[b] {
			t.Fatalf("block %d inside=%v, full repack has %v", b, inc.Inside(b), inside[b])
		}
	}
}

// randomSwap applies one random swap through the evaluator and returns a
// function that applies the same swap again (every swap is its own
// inverse). One swap in three is forced to touch Gamma- index 0 or n-1, the
// two ends of the prefix the evaluator rebuilds from its cache.
func randomSwap(rng *rand.Rand, inc *Incremental, sp *seqpair.SeqPair) func() {
	n := sp.Len()
	i, j := rng.Intn(n), rng.Intn(n)
	for j == i {
		j = rng.Intn(n)
	}
	kind := rng.Intn(3)
	if rng.Intn(3) == 0 {
		// Pin one end: Gamma- index 0 or n-1 for SwapNeg, the block at
		// that Gamma- index for SwapPos and SwapBoth.
		end := 0
		if rng.Intn(2) == 0 {
			end = n - 1
		}
		i = end
		if kind != 1 {
			i = int(inc.posIdx[sp.Neg[end]])
		}
		for j == i {
			j = rng.Intn(n)
		}
	}
	var apply func()
	switch kind {
	case 0:
		apply = func() { inc.SwapPos(i, j) }
	case 1:
		apply = func() { inc.SwapNeg(i, j) }
	default:
		a, b := sp.Pos[i], sp.Pos[j]
		apply = func() { inc.SwapBoth(a, b) }
	}
	apply()
	return apply
}

// TestIncrementalMatchesFullRepack drives the evaluator through random swap
// sequences (several swaps between evaluations, swaps at both ends of
// Gamma-, undos, wholesale resets) up to plan2d scale and asserts that every
// reevaluation is bit-identical to a full repack.
func TestIncrementalMatchesFullRepack(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 40, 200} {
		rng := rand.New(rand.NewSource(int64(100 + n)))
		blocks := randomBlocks(rng, n)
		// At n = 200 the plan2d stencil (400x400) keeps blocks on both
		// sides of the outline, as 120x120 does at n = 40.
		outW := 120
		if n > 40 {
			outW = 400
		}
		outH := outW
		sp := seqpair.Random(n, rng)
		inc := NewIncremental(sp, blocks, outW, outH)
		if n >= 2 {
			// A rejected move before any evaluation: the cold cache must
			// still replay in full.
			randomSwap(rng, inc, sp)()
		}
		inc.Reevaluate(nil)
		checkAgainstFull(t, inc, sp, blocks, outW, outH)

		for move := 0; move < 300; move++ {
			if n >= 2 {
				// One to four swaps between evaluations, the last of them
				// sometimes rejected (undone before reevaluating).
				var undo func()
				for k := 1 + rng.Intn(4); k > 0; k-- {
					undo = randomSwap(rng, inc, sp)
				}
				if rng.Intn(3) == 0 {
					undo()
				}
			}
			if rng.Intn(5) == 0 {
				// Sometimes re-evaluate mid-sequence so the dirty window
				// spans a mix of evaluated and pending moves.
				inc.Reevaluate(nil)
				checkAgainstFull(t, inc, sp, blocks, outW, outH)
				if n >= 2 {
					randomSwap(rng, inc, sp)
				}
			}
			inc.Reevaluate(nil)
			checkAgainstFull(t, inc, sp, blocks, outW, outH)
			if err := sp.Validate(); err != nil {
				t.Fatal(err)
			}

			if move%100 == 99 {
				// Wholesale replacement (the Restore path), followed by
				// swaps before the next evaluation except the last time.
				sp.CopyFrom(seqpair.Random(n, rng))
				inc.Reset()
				if n >= 2 && move != 299 {
					randomSwap(rng, inc, sp)
					randomSwap(rng, inc, sp)
				}
				inc.Reevaluate(nil)
				checkAgainstFull(t, inc, sp, blocks, outW, outH)
			}
		}
	}
}

// TestIncrementalFlips checks that Reevaluate reports exactly the blocks
// whose inside status changed.
func TestIncrementalFlips(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 30
	blocks := randomBlocks(rng, n)
	sp := seqpair.Random(n, rng)
	inc := NewIncremental(sp, blocks, 100, 100)

	prev := make([]bool, n)
	for move := 0; move < 200; move++ {
		i, j := rng.Intn(n), rng.Intn(n)
		for j == i {
			j = rng.Intn(n)
		}
		inc.SwapNeg(i, j)
		flips := inc.Reevaluate(nil)
		for _, b := range flips {
			prev[b] = !prev[b]
		}
		for b := 0; b < n; b++ {
			if prev[b] != inc.Inside(b) {
				t.Fatalf("move %d: flips out of sync at block %d", move, b)
			}
		}
	}
}
