package oned

import (
	"context"
	"strconv"
	"testing"
)

// BenchmarkSolvePlan1D runs the whole E-BLOW 1D flow on single-worker
// solves of 600-character, 10-region MCC instances shaped like the service
// benchmark's plan1d jobs, cycling through four of them. On a 2-vCPU Xeon
// (Go 1.24, 3000 solves under -cpuprofile) its CPU splits as successive
// rounding 39% (the relaxation 12%, of which the knapsack's radix order
// 8%; the rounding queue 6%; the profit updates 4%), the row DP 27% (its
// pdqsort state sort and dominance pruning 19%), post-swap 17% and
// post-insertion 9%. Of the bytes, successive rounding makes 56% (the
// relaxation matrix 25%, the block workspaces 10%, the rounding queue's
// copy 5%), the solver's tables 22%, the final solution 8% and the row DP
// 5%. Bytes and allocs per op are the numbers to watch alongside
// wall-clock; scripts/benchpair.sh compares them between two revisions.
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
