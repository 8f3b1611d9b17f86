package twod

import (
	"context"
	"math/rand"
	"testing"

	"eblow/internal/core"
	"eblow/internal/gen"
)

// plan2dPool returns the first n instances of the service benchmark's
// plan2d pool at seed: a rand source seeded with seed draws one Int63 per
// job as the generator seed of a 200-character, 10-region instance on a
// 400x400 stencil.
func plan2dPool(seed int64, n int) []*core.Instance {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]*core.Instance, n)
	for i := range pool {
		pool[i] = gen.Generate(gen.Params{
			Kind: core.TwoD, NumChars: 200, NumRegions: 10,
			StencilW: 400, StencilH: 400,
			MinWidth: 28, MaxWidth: 48, MinHeight: 28, MaxHeight: 48,
			MinBlank: 4, MaxBlank: 14,
			MinShots: 2, MaxShots: 60, ShotAreaUnit: 45,
			MaxRepeat: 25, RegionSkew: 0.85, Seed: rng.Int63(),
		})
	}
	return pool
}

// BenchmarkSolvePlan2D runs the served E-BLOW 2D planner on the first four
// instances of the service benchmark's plan2d pool at seed 1, cycling
// through them. The shelf's O(n^2) exact legalise dominates the time. Every
// buffer comes from the pooled workspace, so B/op and allocs/op are the
// returned plan's only: its Solution, Selected, Placements, RegionTimes and
// Stats.
func BenchmarkSolvePlan2D(b *testing.B) {
	benchmarkPlan2D(b, Solve)
}

// BenchmarkSolveClusteredPlan2D runs the paper's clustered flow on the same
// instances; its clustered anneal's sequence-pair evaluation
// (pack2d.Incremental) dominates.
func BenchmarkSolveClusteredPlan2D(b *testing.B) {
	benchmarkPlan2D(b, SolveClustered)
}

func benchmarkPlan2D(b *testing.B, solve func(context.Context, *core.Instance, Options) (*core.Solution, *Stats, error)) {
	ins := plan2dPool(1, 4)
	opt := Defaults()
	opt.Workers = 1
	opt.Seed = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := solve(context.Background(), ins[i%len(ins)], opt); err != nil {
			b.Fatal(err)
		}
	}
}
