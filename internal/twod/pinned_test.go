package twod

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"testing"

	"eblow/internal/core"
	"eblow/internal/gen"
)

// planHash is FNV-1a over the selection and every placement.
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
	for _, p := range sol.Placements {
		put(p.Char)
		put(p.X)
		put(p.Y)
	}
	return h.Sum64()
}

// TestPlan2DPoolPinned pins every served plan of the plan2d pools at seeds
// 1 and 7919, as one FNV-1a digest over their plan hashes in pool order,
// and the summed writing time per seed. The pools' jobs carry seeds 1..5;
// the served planner reads no option, so the plans are solved at the
// defaults. A change that moves any plan, or the plan quality, fails here.
func TestPlan2DPoolPinned(t *testing.T) {
	const want uint64 = 0x6d64fc1d3c4c8550
	wantSum := map[int64]int64{1: 327136, 7919: 324587}
	h := fnv.New64a()
	var buf [8]byte
	for _, seed := range []int64{1, 7919} {
		var sum int64
		for i, in := range plan2dPool(seed, 100) {
			sol, _, err := Solve(context.Background(), in, Defaults())
			if err != nil {
				t.Fatal(err)
			}
			if err := sol.Validate(in); err != nil {
				t.Fatalf("seed %d job %d: invalid plan: %v", seed, i, err)
			}
			sum += sol.WritingTime
			binary.LittleEndian.PutUint64(buf[:], planHash(sol))
			h.Write(buf[:])
		}
		if sum != wantSum[seed] {
			t.Errorf("seed %d: summed writing time %d, want %d", seed, sum, wantSum[seed])
		}
	}
	if got := h.Sum64(); got != want {
		t.Errorf("plan2d pool digest %#x, want %#x", got, want)
	}
}

// TestTiny2TOptimumPinned holds the served plan on the Table 5 case 2T-1 at
// its proven optimum: the exact ILP (formulation (7)) proves T = 22 at two
// workers in about 16 s, too slow for a test, so the value is pinned.
func TestTiny2TOptimumPinned(t *testing.T) {
	const optimum = 22
	in := gen.Tiny2T(1)
	sol, _, err := Solve(context.Background(), in, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.Validate(in); err != nil {
		t.Fatalf("invalid plan: %v", err)
	}
	if sol.WritingTime != optimum {
		t.Errorf("%s: T %d with %d characters, want the proven optimum %d", in.Name, sol.WritingTime, sol.NumSelected(), optimum)
	}
}
