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

// BenchmarkRelaxationStructured measures one full relaxation solve of the
// kind every successive-rounding iteration pays, on a 4000-character MCC
// instance with 10 column-cell bands of 5 rows: one block per band, each
// pooling its own rows' capacities, solved on 1 and 4 workers.
func BenchmarkRelaxationStructured(b *testing.B) {
	in, groups := groupedInstance(4000, 10, 5, 0, 5)
	for _, w := range []int{1, 4} {
		b.Run("blocks-w"+strconv.Itoa(w), func(b *testing.B) {
			s, unsolved, caps := relaxSolver(b, in, groups, w, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.solveRelaxation(unsolved, caps); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
