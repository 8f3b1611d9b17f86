package eblow

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section, plus ablation benches for the design choices called
// out in DESIGN.md. Each benchmark iteration regenerates the corresponding
// table/figure on the synthetic benchmark suite and reports it through b.Log,
// so `go test -bench . -benchmem` reproduces the full evaluation.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"eblow/internal/oned"
	"eblow/internal/report"
	"eblow/internal/twod"
)

// benchConfig keeps the full evaluation affordable on a laptop: the prior
// work annealer and the exact ILP get fixed per-case budgets (the paper used
// an hour per ILP; only the shape "which cases finish" matters).
func benchConfig() report.Config {
	return report.Config{
		Seed:             1,
		SATimeLimit:      8 * time.Second,
		EBlow2DTimeLimit: 5 * time.Second,
		ExactTimeLimit:   10 * time.Second,
	}
}

// BenchmarkTable3 regenerates Table 3: 1DOSP writing time, character count
// and runtime for Greedy, [24], [25] and E-BLOW on 1D-1..4 and 1M-1..8.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := report.Table3(context.Background(), report.Table3Cases(), benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + report.FormatRows("Table 3 (1DOSP)", rows))
	}
}

// BenchmarkTable4 regenerates Table 4: 2DOSP writing time, character count
// and runtime for Greedy, [24] and E-BLOW on 2D-1..4 and 2M-1..8.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := report.Table4(context.Background(), report.Table4Cases(), benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + report.FormatRows("Table 4 (2DOSP)", rows))
	}
}

// BenchmarkTable5 regenerates Table 5: exact ILP formulations (3)/(7) versus
// E-BLOW on the tiny 1T/2T cases.
func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := report.Table5(context.Background(), benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + report.FormatRows("Table 5 (ILP vs E-BLOW)", rows))
	}
}

// BenchmarkFig5 regenerates Fig. 5: unsolved characters per LP rounding
// iteration on 1M-1..4.
func BenchmarkFig5(b *testing.B) {
	cases := []string{"1M-1", "1M-2", "1M-3", "1M-4"}
	for i := 0; i < b.N; i++ {
		data, err := report.Fig5(context.Background(), cases, benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + report.FormatFig5(data))
	}
}

// BenchmarkFig6 regenerates Fig. 6: histogram of LP values in the last
// rounding iteration of 1M-1.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		hist, err := report.Fig6(context.Background(), "1M-1", benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + report.FormatFig6("1M-1", hist))
	}
}

// BenchmarkFig11And12 regenerates Figs. 11 and 12: writing time and runtime
// of E-BLOW-0 versus E-BLOW-1 on the 1D/1M cases.
func BenchmarkFig11And12(b *testing.B) {
	cases := report.Table3Cases()
	for i := 0; i < b.N; i++ {
		rows, err := report.Ablation(context.Background(), cases, benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + report.FormatAblation(rows))
	}
}

// --- Ablation benches for the design choices listed in DESIGN.md. ---

// BenchmarkAblationThinv varies the successive-rounding threshold.
func BenchmarkAblationThinv(b *testing.B) {
	in, err := Benchmark("1M-2")
	if err != nil {
		b.Fatal(err)
	}
	for _, thinv := range []float64{0.5, 0.7, 0.9, 0.99} {
		b.Run(formatFloat("thinv", thinv), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := oned.Defaults()
				opt.Thinv = thinv
				sol, _, err := oned.Solve(context.Background(), in, opt)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(sol.WritingTime), "writingTime")
			}
		})
	}
}

// BenchmarkAblationConvergence compares E-BLOW with and without the fast ILP
// convergence step.
func BenchmarkAblationConvergence(b *testing.B) {
	in, err := Benchmark("1M-3")
	if err != nil {
		b.Fatal(err)
	}
	for _, enabled := range []bool{false, true} {
		name := "without-fast-ilp"
		if enabled {
			name = "with-fast-ilp"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := oned.Defaults()
				opt.EnableFastConvergence = enabled
				sol, _, err := oned.Solve(context.Background(), in, opt)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(sol.WritingTime), "writingTime")
			}
		})
	}
}

// BenchmarkAblationPrune varies the refinement pruning threshold.
func BenchmarkAblationPrune(b *testing.B) {
	in, err := Benchmark("1D-3")
	if err != nil {
		b.Fatal(err)
	}
	for _, prune := range []int{1, 5, 20, 100} {
		b.Run(formatInt("prune", prune), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := oned.Defaults()
				opt.PruneThreshold = prune
				sol, _, err := oned.Solve(context.Background(), in, opt)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(sol.WritingTime), "writingTime")
			}
		})
	}
}

// BenchmarkAblationClusterBound varies the 2D clustering similarity bound.
func BenchmarkAblationClusterBound(b *testing.B) {
	in, err := Benchmark("2M-2")
	if err != nil {
		b.Fatal(err)
	}
	for _, bound := range []float64{0.05, 0.2, 0.5} {
		b.Run(formatFloat("bound", bound), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := twod.Defaults()
				opt.SimilarityBound = bound
				opt.TimeLimit = 5 * time.Second
				sol, stats, err := twod.Solve(context.Background(), in, opt)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(sol.WritingTime), "writingTime")
				b.ReportMetric(float64(stats.Clusters), "clusters")
			}
		})
	}
}

// BenchmarkAblationLPBackend compares the structured knapsack relaxation with
// the dense simplex on a small instance where both are affordable.
func BenchmarkAblationLPBackend(b *testing.B) {
	in := SmallInstance(OneD, 120, 4, 7)
	for _, backend := range []oned.LPBackend{oned.StructuredLP, oned.SimplexLP} {
		b.Run(backend.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := oned.Defaults()
				opt.Backend = backend
				sol, _, err := oned.Solve(context.Background(), in, opt)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(sol.WritingTime), "writingTime")
			}
		})
	}
}

// BenchmarkEBlow1DLarge measures a single E-BLOW 1D solve on the largest MCC
// case (useful for profiling the planner itself).
func BenchmarkEBlow1DLarge(b *testing.B) {
	in, err := Benchmark("1M-8")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveWith(context.Background(), in, Params{}); err != nil {
			b.Fatal(err)
		}
	}
}

func formatFloat(prefix string, v float64) string { return fmt.Sprintf("%s=%g", prefix, v) }
func formatInt(prefix string, v int) string       { return fmt.Sprintf("%s=%d", prefix, v) }
