package twod

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"eblow/internal/core"
	"eblow/internal/gen"
)

// workspaceInstances returns 2D instances that grow and shrink the
// workspace's buffers: none of whose characters fits the stencil, 1, 200
// (the first plan2d job), 37 and 600 characters, with 1 or 10 regions; the
// 600-character one is cut by the pre-filter, and one stencil is narrower
// than some of its characters.
func workspaceInstances() []*core.Instance {
	mk := func(chars, regions, stencilW int, seed int64) *core.Instance {
		return gen.Generate(gen.Params{
			Kind: core.TwoD, NumChars: chars, NumRegions: regions,
			StencilW: stencilW, StencilH: 400,
			MinWidth: 28, MaxWidth: 48, MinHeight: 28, MaxHeight: 48,
			MinBlank: 4, MaxBlank: 14,
			MinShots: 2, MaxShots: 60, ShotAreaUnit: 45,
			MaxRepeat: 25, RegionSkew: 0.85, Seed: seed,
		})
	}
	return []*core.Instance{
		mk(30, 10, 20, 1), // no character fits: nothing to pack
		mk(1, 1, 400, 2),
		plan2dPool(1, 1)[0],
		mk(37, 1, 400, 3),
		mk(600, 10, 400, 4), // the pre-filter cuts it
		mk(1, 10, 400, 5),
		mk(120, 10, 40, 6), // the stencil is narrower than some characters
		mk(37, 10, 400, 7),
	}
}

// TestSolveWorkspaceReuse checks that a reused workspace gives the plans of
// fresh ones as its buffers grow and shrink, and that concurrent Solve
// calls, which share the workspace pool, give the serial plans.
func TestSolveWorkspaceReuse(t *testing.T) {
	ins := workspaceInstances()
	var cut, narrow, empty bool
	reused := new(workspace)
	want := make([]uint64, len(ins))
	for i, in := range ins {
		got, gotStats, err := reused.solve(context.Background(), in)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		fresh, freshStats, err := new(workspace).solve(context.Background(), in)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		if err := got.Validate(in); err != nil {
			t.Fatalf("instance %d: invalid plan: %v", i, err)
		}
		if planHash(got) != planHash(fresh) || got.WritingTime != fresh.WritingTime ||
			!reflect.DeepEqual(got.RegionTimes, fresh.RegionTimes) || *gotStats != *freshStats {
			t.Errorf("instance %d (%d characters, %d regions): the reused workspace's plan differs from a fresh one's",
				i, in.NumCharacters(), in.NumRegions)
		}
		if len(got.Placements) != cap(got.Placements) {
			t.Errorf("instance %d: %d placements in a slice of capacity %d", i, len(got.Placements), cap(got.Placements))
		}
		want[i] = planHash(got)
		cut = cut || gotStats.AfterFilter < countFits(in)
		narrow = narrow || (countFits(in) > 0 && countFits(in) < in.NumCharacters())
		empty = empty || gotStats.AfterFilter == 0
	}
	if !cut || !narrow || !empty {
		t.Fatalf("the instances miss a case: pre-filter cut %v, narrow stencil %v, nothing to pack %v", cut, narrow, empty)
	}

	const goroutines = 4
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range 3 * len(ins) {
				i := (g + r) % len(ins)
				sol, _, err := Solve(context.Background(), ins[i], Defaults())
				if err != nil {
					t.Errorf("goroutine %d, instance %d: %v", g, i, err)
					return
				}
				if planHash(sol) != want[i] {
					t.Errorf("goroutine %d, instance %d: a concurrent Solve differs from the serial plan", g, i)
				}
			}
		}()
	}
	wg.Wait()
}

// countFits returns how many characters fit the stencil.
func countFits(in *core.Instance) int {
	return len(candidateIDs(in, nil))
}

// TestSolvePlan2DAllocs caps the allocations of a warm Solve on the first
// plan2d job at those of what it returns: the Solution, its Selected,
// Placements and RegionTimes, and the Stats. Every other buffer comes from
// the workspace pool.
func TestSolvePlan2DAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const maxAllocs = 5
	in := plan2dPool(1, 1)[0]
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := Solve(context.Background(), in, Defaults()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxAllocs {
		t.Errorf("a warm Solve makes %.1f allocations, want at most %d", allocs, maxAllocs)
	}
}
