package floorsa

import (
	"math/rand"
	"testing"

	"eblow/internal/pack2d"
	"eblow/internal/seqpair"
)

// randomInstance builds n blocks with random geometry and per-region
// reductions over m regions, plus the matching VSB times.
func randomInstance(rng *rand.Rand, n, m int) ([]pack2d.Block, [][]int64, []int64) {
	blocks := make([]pack2d.Block, n)
	reds := make([][]int64, n)
	for i := range blocks {
		w := 15 + rng.Intn(35)
		h := 15 + rng.Intn(35)
		blocks[i] = pack2d.Block{
			W: w, H: h,
			BlankL: rng.Intn(8), BlankR: rng.Intn(8),
			BlankT: rng.Intn(8), BlankB: rng.Intn(8),
		}
		reds[i] = make([]int64, m)
		for c := range reds[i] {
			reds[i][c] = int64(rng.Intn(30))
		}
	}
	vsb := make([]int64, m)
	for c := range vsb {
		vsb[c] = 2000 + int64(rng.Intn(500))
	}
	return blocks, reds, vsb
}

// TestIncrementalCostMatchesFullRepack runs random move sequences through the
// annealing state — including rejected (undone) moves and Snapshot/Restore
// round trips — and asserts that the incremental Cost equals the full
// recompute after every step, for both objectives.
func TestIncrementalCostMatchesFullRepack(t *testing.T) {
	for _, useSum := range []bool{false, true} {
		for _, n := range []int{2, 5, 25, 60} {
			rng := rand.New(rand.NewSource(int64(n)*17 + 3))
			blocks, reds, vsb := randomInstance(rng, n, 4)
			sp := seqpair.Random(n, rng)
			s := newState(sp, blocks, reds, vsb, 140, 140, useSum)

			if got, want := s.Cost(), s.fullCost(); got != want {
				t.Fatalf("initial cost %v != full recompute %v", got, want)
			}
			var best interface{}
			for move := 0; move < 400; move++ {
				switch {
				case rng.Intn(20) == 0:
					best = s.Snapshot()
				case best != nil && rng.Intn(25) == 0:
					s.Restore(best)
				default:
					cost, undo := s.PerturbCost(rng)
					if want := s.fullCost(); cost != want {
						t.Fatalf("move %d: incremental cost %v != full recompute %v (useSum=%v)",
							move, cost, want, useSum)
					}
					if rng.Intn(2) == 0 {
						undo() // rejected move
					}
				}
				if got, want := s.Cost(), s.fullCost(); got != want {
					t.Fatalf("move %d: post-step cost %v != full recompute %v (useSum=%v)",
						move, got, want, useSum)
				}
			}
		}
	}
}

// TestPerturbCostMatchesSeparateCalls verifies the DeltaState contract: the
// fused PerturbCost consumes the same random draws and returns the same cost
// as Perturb followed by Cost.
func TestPerturbCostMatchesSeparateCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	blocks, reds, vsb := randomInstance(rng, 30, 3)
	spA := seqpair.Random(30, rng)
	spB := spA.Clone()
	a := newState(spA, blocks, reds, vsb, 150, 150, false)
	b := newState(spB, blocks, reds, vsb, 150, 150, false)

	rngA := rand.New(rand.NewSource(99))
	rngB := rand.New(rand.NewSource(99))
	for move := 0; move < 200; move++ {
		costA, undoA := a.PerturbCost(rngA)
		undoB := b.Perturb(rngB)
		costB := b.Cost()
		if costA != costB {
			t.Fatalf("move %d: fused cost %v != separate cost %v", move, costA, costB)
		}
		if move%3 == 0 {
			undoA()
			undoB()
		}
	}
	for i := range spA.Pos {
		if spA.Pos[i] != spB.Pos[i] || spA.Neg[i] != spB.Neg[i] {
			t.Fatal("fused and separate move application diverged")
		}
	}
}

// TestSnapshotPingPong exercises the two-buffer snapshot reuse under the
// engine's access pattern: each new snapshot replaces the previous live one,
// and the live snapshot must survive further moves (including one newer
// snapshot, since the buffers alternate) until it is restored.
func TestSnapshotPingPong(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	blocks, reds, vsb := randomInstance(rng, 12, 2)
	s := newState(seqpair.Random(12, rng), blocks, reds, vsb, 100, 100, false)

	for round := 0; round < 50; round++ {
		snap := s.Snapshot()
		want := snap.(*seqpair.SeqPair).Clone()
		for k := 0; k < 5; k++ {
			s.PerturbCost(rng)
		}
		got := snap.(*seqpair.SeqPair)
		for i := range want.Pos {
			if got.Pos[i] != want.Pos[i] || got.Neg[i] != want.Neg[i] {
				t.Fatalf("round %d: live snapshot was clobbered", round)
			}
		}
		s.Restore(snap)
		if got, wantC := s.Cost(), s.fullCost(); got != wantC {
			t.Fatalf("round %d: cost after restore %v != full recompute %v", round, got, wantC)
		}
	}
}
