package oned

import (
	"context"
	"strconv"
	"testing"
)

// BenchmarkSolvePlan1D runs the whole E-BLOW 1D flow on single-worker
// solves of 600-character, 10-region MCC instances shaped like the service
// benchmark's plan1d jobs, cycling through four of them. On a 2-vCPU Xeon
// (Go 1.24) its CPU splits as successive rounding 34% (the relaxation 11%,
// the rounding-entry sort 9%), the row DP 27% (its state sort 10%),
// post-swap 21% (its candidate scan 12%) and post-insertion 6%; the
// profit updates inside those stages take 6% in all. Of the bytes, the row
// DP makes 36%, successive rounding 35% (mostly the relaxation matrix and
// block workspaces its first iteration sizes) and the solver's tables 16%.
// Bytes and allocs per op are the numbers to watch alongside wall-clock;
// scripts/benchpair.sh compares them between two revisions.
func BenchmarkSolvePlan1D(b *testing.B) {
	ins := plan1dInstances()
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
