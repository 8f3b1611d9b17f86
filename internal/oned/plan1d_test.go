package oned

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"eblow/internal/core"
	"eblow/internal/gen"
)

// plan1dInstances returns the four 600-character, 10-region MCC instances
// BenchmarkSolvePlan1D cycles through: the first four of the service
// benchmark's plan1d pool at seed 1.
func plan1dInstances() []*core.Instance {
	return plan1dPool(1, 4)
}

// planHash is FNV-1a over the selection and every row's y, characters and
// x positions.
func planHash(sol *core.Solution) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, on := range sol.Selected {
		if on {
			put(1)
		} else {
			put(0)
		}
	}
	for _, r := range sol.Rows {
		put(r.Y)
		put(len(r.Chars))
		for k, c := range r.Chars {
			put(c)
			put(r.X[k])
		}
	}
	return h.Sum64()
}

// floatsHash is FNV-1a over the bits of vs.
func floatsHash(vs []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestPlan1DPinned pins the plans of the four plan1d-shaped instances, at
// one and four workers: writing time, a hash of the plan, the characters
// assigned per rounding iteration, and a hash of the last relaxation's
// per-character maxima that fast convergence reads. The reused rounding
// and row-DP buffers, the rounding queue that sorts only the entries the
// loop reads, and the knapsack's radix order are pure speed-ups: the
// values match a solve that allocates every matrix afresh, sorts every
// rounding entry and orders the knapsack items by comparison. Every sort
// that decides these plans is a strict order (TestStrictOrder), so they do
// not depend on how a sort places ties, and a change that moves a plan
// fails here.
func TestPlan1DPinned(t *testing.T) {
	want := []struct {
		writingTime int64
		plan        uint64
		assigned    []int
		lastLP      uint64
		nLastLP     int
	}{
		{6538, 0xa3b5c8462bc53a47, []int{50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 20, 2}, 0xff13773534caa9e, 28},
		{5861, 0x21714b2449ebf890, []int{50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 14, 5}, 0x22f84a04b7ec9517, 31},
		{6481, 0xc6547679ddeb5d55, []int{50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 25, 2}, 0x2d83430e89d14096, 23},
		{5814, 0x7e5530ea582555b2, []int{50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 14, 3}, 0x7e0af0d9f8b0d3ac, 33},
	}
	for k, in := range plan1dInstances() {
		for _, workers := range []int{1, 4} {
			opt := Defaults()
			opt.Workers = workers
			opt.CollectTrace = true
			sol, tr, err := Solve(context.Background(), in, opt)
			if err != nil {
				t.Fatal(err)
			}
			w := want[k]
			if sol.WritingTime != w.writingTime {
				t.Errorf("instance %d, %d workers: writing time %d, want %d", k, workers, sol.WritingTime, w.writingTime)
			}
			if h := planHash(sol); h != w.plan {
				t.Errorf("instance %d, %d workers: plan hash %#x, want %#x", k, workers, h, w.plan)
			}
			if !slices.Equal(tr.AssignedPerIteration, w.assigned) {
				t.Errorf("instance %d, %d workers: assigned per iteration %v, want %v", k, workers, tr.AssignedPerIteration, w.assigned)
			}
			if h := floatsHash(tr.LastLPValues); h != w.lastLP || len(tr.LastLPValues) != w.nLastLP {
				t.Errorf("instance %d, %d workers: %d last LP values hashing to %#x, want %d and %#x",
					k, workers, len(tr.LastLPValues), h, w.nLastLP, w.lastLP)
			}
		}
	}
}

// TestRowGroupPlansPinned does the same for row-grouped instances: one
// block per group, and a bridge that merges two of the four groups into one
// block. Their rounding runs several iterations over several blocks, so a
// relaxation entry left over from an earlier iteration or another block
// would move these plans.
func TestRowGroupPlansPinned(t *testing.T) {
	cases := []struct {
		bridgeEvery int
		writingTime int64
		plan        uint64
		assigned    []int
		lastLP      uint64
	}{
		{0, 7666, 0x69f2d21c73887691, []int{33, 33, 33, 29, 1}, 0x91237e7b5c3f25f1},
		{8, 9041, 0xb02f923e3f154c75, []int{33, 33, 33, 30, 0}, 0x8e28c7f138dd0b29},
	}
	for _, c := range cases {
		in := withBands(groupedInstance(400, 4, 2, c.bridgeEvery, 3))
		for _, workers := range []int{1, 4} {
			opt := Defaults()
			opt.Workers = workers
			opt.CollectTrace = true
			sol, tr, err := Solve(context.Background(), in, opt)
			if err != nil {
				t.Fatal(err)
			}
			if sol.WritingTime != c.writingTime || planHash(sol) != c.plan ||
				!slices.Equal(tr.AssignedPerIteration, c.assigned) || floatsHash(tr.LastLPValues) != c.lastLP {
				t.Errorf("bridge every %d, %d workers: writing time %d, plan hash %#x, assigned per iteration %v, last LP hash %#x; want %d, %#x, %v, %#x",
					c.bridgeEvery, workers, sol.WritingTime, planHash(sol), tr.AssignedPerIteration, floatsHash(tr.LastLPValues),
					c.writingTime, c.plan, c.assigned, c.lastLP)
			}
		}
	}
}

// plan1dPool returns the first n instances of the service benchmark's
// plan1d pool for seed, drawn as that benchmark draws them: one rng.Int63()
// per job as the generator seed of a 600-character, 10-region MCC instance.
func plan1dPool(seed int64, n int) []*core.Instance {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]*core.Instance, n)
	for i := range pool {
		pool[i] = gen.Generate(gen.Params{
			Kind: core.OneD, NumChars: 600, NumRegions: 10,
			StencilW: 800, StencilH: 800, RowHeight: 40,
			MinWidth: 28, MaxWidth: 44, MinBlank: 4, MaxBlank: 14,
			MinShots: 2, MaxShots: 60, ShotAreaUnit: 45,
			MaxRepeat: 25, RegionSkew: 0.85, Seed: rng.Int63(),
		})
	}
	return pool
}

// TestPlan1DPoolPinned pins every plan of the plan1d pools at seeds 1 and
// 7919 on single-worker solves, as one FNV-1a digest over their plan
// hashes in pool order. The four plan1d instances of TestPlan1DPinned hit
// few of the rounding and row-DP ties that the comparators' identity
// tie-breaks decide; 256 solves hit many more, so a speed-up that moves
// any plan fails here.
func TestPlan1DPoolPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("256 solves; run without -short")
	}
	const want uint64 = 0x930477bde2ebe834
	h := fnv.New64a()
	var buf [8]byte
	for _, seed := range []int64{1, 7919} {
		for _, in := range plan1dPool(seed, 128) {
			opt := Defaults()
			opt.Workers = 1
			sol, _, err := Solve(context.Background(), in, opt)
			if err != nil {
				t.Fatal(err)
			}
			binary.LittleEndian.PutUint64(buf[:], planHash(sol))
			h.Write(buf[:])
		}
	}
	if got := h.Sum64(); got != want {
		t.Errorf("plan1d pool digest %#x, want %#x", got, want)
	}
}
