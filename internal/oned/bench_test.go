package oned

import (
	"context"
	"math/rand"
	"strconv"
	"testing"

	"eblow/internal/core"
	"eblow/internal/gen"
)

// BenchmarkSolvePlan1D runs the whole E-BLOW 1D flow on single-worker
// solves of 600-character, 10-region MCC instances shaped like the service
// benchmark's plan1d jobs, cycling through four of them. After the LP it is
// dominated by post-swap and the row DP, so bytes and allocs per op are the
// numbers to watch alongside wall-clock.
func BenchmarkSolvePlan1D(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ins := make([]*core.Instance, 4)
	for k := range ins {
		ins[k] = gen.Generate(gen.Params{
			Kind: core.OneD, NumChars: 600, NumRegions: 10,
			StencilW: 800, StencilH: 800, RowHeight: 40,
			MinWidth: 28, MaxWidth: 44, MinBlank: 4, MaxBlank: 14,
			MinShots: 2, MaxShots: 60, ShotAreaUnit: 45,
			MaxRepeat: 25, RegionSkew: 0.85, Seed: rng.Int63(),
		})
	}
	opt := Defaults()
	opt.Workers = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Solve(context.Background(), ins[i%len(ins)], opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRelaxationDecomposed measures the block-decomposed LP relaxation
// (simplex backend, one MCC column-cell band per region) against the
// monolithic restricted LP, and its multi-worker scaling. One iteration is
// one full relaxation solve of the kind every successive-rounding iteration
// pays; wall-clock per op is the number to watch.
func BenchmarkRelaxationDecomposed(b *testing.B) {
	in, groups := groupedInstance(800, 10, 2, 0, 3)
	run := func(b *testing.B, workers int, monolithic bool) {
		s, unsolved, caps := relaxSolver(b, in, groups, SimplexLP, workers, 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			if monolithic {
				_, err = s.solveRelaxationMonolithic(unsolved, caps)
			} else {
				_, err = s.solveRelaxation(unsolved, caps)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("monolithic", func(b *testing.B) { run(b, 1, true) })
	for _, w := range []int{1, 2, 4, 8} {
		b.Run("blocks-w"+strconv.Itoa(w), func(b *testing.B) { run(b, w, false) })
	}
}

// BenchmarkRelaxationMCC is the 4000-character MCC-scale variant (10
// column-cell bands of 5 rows). The monolithic dense LP does not fit at this
// scale — the decomposition is what makes the simplex backend feasible at
// all — so only the decomposed solve is measured. Skipped in -short runs.
func BenchmarkRelaxationMCC(b *testing.B) {
	if testing.Short() {
		b.Skip("MCC-scale relaxation benchmark skipped in -short mode")
	}
	in, groups := groupedInstance(4000, 10, 5, 0, 17)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run("blocks-w"+strconv.Itoa(w), func(b *testing.B) {
			s, unsolved, caps := relaxSolver(b, in, groups, SimplexLP, w, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.solveRelaxation(unsolved, caps); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRelaxationStructured measures the default structured backend on
// the same grouped instance, at MCC scale: the block split also applies
// there (per-band pooled capacities) and must stay cheap.
func BenchmarkRelaxationStructured(b *testing.B) {
	in, groups := groupedInstance(4000, 10, 5, 0, 5)
	for _, w := range []int{1, 4} {
		b.Run("blocks-w"+strconv.Itoa(w), func(b *testing.B) {
			s, unsolved, caps := relaxSolver(b, in, groups, StructuredLP, w, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.solveRelaxation(unsolved, caps); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
