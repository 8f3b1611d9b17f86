package twod

import (
	"context"
	"math/rand"
	"testing"

	"eblow/internal/core"
	"eblow/internal/gen"
)

// BenchmarkSolvePlan2D runs the whole E-BLOW 2D flow on single-worker
// solves of 200-character, 10-region instances on a 400x400 stencil shaped
// like the service benchmark's plan2d jobs, cycling through four of them.
// The clustered anneal's sequence-pair evaluation (pack2d.Incremental)
// dominates; wall-clock per op is the number to watch, with bytes and
// allocs per op as the control.
func BenchmarkSolvePlan2D(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ins := make([]*core.Instance, 4)
	for k := range ins {
		ins[k] = gen.Generate(gen.Params{
			Kind: core.TwoD, NumChars: 200, NumRegions: 10,
			StencilW: 400, StencilH: 400,
			MinWidth: 28, MaxWidth: 48, MinHeight: 28, MaxHeight: 48,
			MinBlank: 4, MaxBlank: 14,
			MinShots: 2, MaxShots: 60, ShotAreaUnit: 45,
			MaxRepeat: 25, RegionSkew: 0.85, Seed: rng.Int63(),
		})
	}
	opt := Defaults()
	opt.Workers = 1
	opt.Seed = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Solve(context.Background(), ins[i%len(ins)], opt); err != nil {
			b.Fatal(err)
		}
	}
}
