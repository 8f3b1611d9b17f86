package floorsa

import (
	"context"
	"math/rand"
	"testing"

	"eblow/internal/anneal"
	"eblow/internal/pack2d"
	"eblow/internal/seqpair"
)

// benchState builds a representative annealing state: 300 blocks over 10 MCC
// regions on a stencil that fits roughly half of them, so moves keep
// flipping blocks across the outline the way a real run does.
func benchState(useSum bool) *state {
	rng := rand.New(rand.NewSource(42))
	blocks, reds, vsb := randomInstance(rng, 300, 10)
	sp := seqpair.Random(300, rng)
	return newState(sp, blocks, reds, vsb, 500, 500, useSum)
}

// legacyState replicates the pre-incremental annealing state exactly: every
// move re-packs the whole floorplan (PackApprox + InsideOutline + a fresh
// region-times recompute), Perturb allocates an undo closure per move and
// routes block exchanges through the O(n) map-based SeqPair.SwapBoth, and
// Snapshot/Restore clone the full sequence pair. It is the full-repack
// baseline the benchmarks compare against.
type legacyState struct {
	sp     *seqpair.SeqPair
	blocks []pack2d.Block
	reds   [][]int64
	vsb    []int64
	w, h   int
	useSum bool
}

func (s *legacyState) Cost() float64 {
	pl := pack2d.PackApprox(s.sp, s.blocks)
	inside := pack2d.InsideOutline(pl, s.blocks, s.w, s.h)
	if s.useSum {
		return float64(totalTime(s.vsb, s.reds, inside))
	}
	return float64(writingTime(s.vsb, s.reds, inside))
}

func (s *legacyState) Perturb(rng *rand.Rand) func() {
	n := s.sp.Len()
	if n < 2 {
		return func() {}
	}
	i, j := rng.Intn(n), rng.Intn(n)
	for j == i {
		j = rng.Intn(n)
	}
	switch rng.Intn(3) {
	case 0:
		s.sp.SwapPos(i, j)
		return func() { s.sp.SwapPos(i, j) }
	case 1:
		s.sp.SwapNeg(i, j)
		return func() { s.sp.SwapNeg(i, j) }
	default:
		a, b := s.sp.Pos[i], s.sp.Pos[j]
		s.sp.SwapBoth(a, b)
		return func() { s.sp.SwapBoth(a, b) }
	}
}

func (s *legacyState) Snapshot() interface{} { return s.sp.Clone() }

func (s *legacyState) Restore(v interface{}) { s.sp = v.(*seqpair.SeqPair).Clone() }

func benchLegacyState(useSum bool) *legacyState {
	rng := rand.New(rand.NewSource(42))
	blocks, reds, vsb := randomInstance(rng, 300, 10)
	sp := seqpair.Random(300, rng)
	return &legacyState{sp: sp, blocks: blocks, reds: reds, vsb: vsb, w: 500, h: 500, useSum: useSum}
}

// benchSink keeps the compiler from eliding the benchmarked evaluations.
var benchSink float64

// BenchmarkMoveIncremental measures the annealing hot path as the engine
// drives it: one fused PerturbCost per iteration, evaluated incrementally.
// Moves per second is 1e9 / (ns/op).
func BenchmarkMoveIncremental(b *testing.B) {
	s := benchState(false)
	rng := rand.New(rand.NewSource(1))
	s.Cost()
	var sink float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cost, undo := s.PerturbCost(rng)
		sink += cost
		if i%2 == 0 {
			undo() // half the moves are rejected, like a real schedule
		}
	}
	benchSink = sink
}

// BenchmarkMoveFullRepack is the pre-incremental baseline: every move pays
// the legacy Perturb (closure allocation, map-based SwapBoth) plus a full
// floorplan repack.
func BenchmarkMoveFullRepack(b *testing.B) {
	s := benchLegacyState(false)
	rng := rand.New(rand.NewSource(1))
	var sink float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		undo := s.Perturb(rng)
		sink += s.Cost()
		if i%2 == 0 {
			undo()
		}
	}
	benchSink = sink
}

// annealOpts is a short real schedule for the end-to-end engine benchmarks.
var annealOpts = anneal.Options{Seed: 3, InitialTemp: 50, FinalTemp: 5, MovesPerTemp: 400, Cooling: 0.85}

// BenchmarkAnnealIncremental runs the real engine loop (acceptance,
// snapshots, restores) on the incremental state; b.N counts moves.
func BenchmarkAnnealIncremental(b *testing.B) {
	b.ReportAllocs()
	moves := 0
	for moves < b.N {
		res := anneal.Minimize(context.Background(), benchState(false), annealOpts)
		moves += res.Moves
	}
}

// BenchmarkAnnealFullRepack runs the same engine schedule on the legacy
// full-repack state.
func BenchmarkAnnealFullRepack(b *testing.B) {
	b.ReportAllocs()
	moves := 0
	for moves < b.N {
		res := anneal.Minimize(context.Background(), benchLegacyState(false), annealOpts)
		moves += res.Moves
	}
}

// BenchmarkSnapshotRestore measures the snapshot round trip, which the old
// implementation paid two sequence-pair clones for on every improvement.
func BenchmarkSnapshotRestore(b *testing.B) {
	s := benchState(false)
	s.Cost()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Restore(s.Snapshot())
	}
}
