// Package report runs the experiments of the E-BLOW paper's evaluation
// section (Tables 3-5, Figures 5, 6, 11, 12) on the synthetic benchmark
// suite and formats the results. It is shared by the benchmark harness in
// the repository root (bench_test.go) and the cmd/ospbench binary.
package report

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"eblow/internal/baseline"
	"eblow/internal/core"
	"eblow/internal/exact"
	"eblow/internal/gen"
	"eblow/internal/oned"
	"eblow/internal/twod"
)

// AlgoResult is one algorithm's outcome on one benchmark case.
type AlgoResult struct {
	Algorithm string
	// WritingTime is the MCC writing time T; -1 means the algorithm found no
	// solution within its limit.
	WritingTime int64
	Characters  int
	CPU         time.Duration
	Optimal     bool
}

// Row is one benchmark case of a table.
type Row struct {
	Case    string
	Results []AlgoResult
}

// Config controls the experiment runtime budget.
type Config struct {
	// Seed seeds the randomized algorithms.
	Seed int64
	// SATimeLimit bounds the prior-work 2D annealer per case (default 20s).
	// Each limit becomes the deadline of the call's context.
	SATimeLimit time.Duration
	// EBlow2DTimeLimit bounds the paper's clustered E-BLOW 2D flow
	// (twod.SolveClustered) per case (default 10s).
	EBlow2DTimeLimit time.Duration
	// ExactTimeLimit bounds each exact ILP solve of Table 5 (default 20s;
	// the paper used 3600s, the shape — which cases finish — is the same).
	ExactTimeLimit time.Duration
	// Workers bounds the goroutines used by the parallel solver stages
	// (0 = one per CPU). Results are identical for every worker count.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.SATimeLimit <= 0 {
		c.SATimeLimit = 20 * time.Second
	}
	if c.EBlow2DTimeLimit <= 0 {
		c.EBlow2DTimeLimit = 10 * time.Second
	}
	if c.ExactTimeLimit <= 0 {
		c.ExactTimeLimit = 20 * time.Second
	}
	return c
}

// Table3Cases lists the benchmark cases of Table 3 (1DOSP).
func Table3Cases() []string {
	return []string{"1D-1", "1D-2", "1D-3", "1D-4", "1M-1", "1M-2", "1M-3", "1M-4", "1M-5", "1M-6", "1M-7", "1M-8"}
}

// Table4Cases lists the benchmark cases of Table 4 (2DOSP).
func Table4Cases() []string {
	return []string{"2D-1", "2D-2", "2D-3", "2D-4", "2M-1", "2M-2", "2M-3", "2M-4", "2M-5", "2M-6", "2M-7", "2M-8"}
}

// Table5Cases lists the benchmark cases of Table 5 (exact ILP comparison).
func Table5Cases() []string {
	return []string{"1T-1", "1T-2", "1T-3", "1T-4", "1T-5", "2T-1", "2T-2", "2T-3", "2T-4"}
}

func resultFromSolution(alg string, sol *core.Solution) AlgoResult {
	return AlgoResult{
		Algorithm:   alg,
		WritingTime: sol.WritingTime,
		Characters:  sol.NumSelected(),
		CPU:         sol.Runtime,
	}
}

// Table3 reproduces the 1DOSP comparison: greedy, the prior-work heuristic
// [24], the row-structure heuristic [25], and E-BLOW, on the given cases.
func Table3(ctx context.Context, cases []string, cfg Config) ([]Row, error) {
	cfg = cfg.withDefaults()
	var rows []Row
	for _, name := range cases {
		in, err := gen.ByName(name)
		if err != nil {
			return nil, err
		}
		row := Row{Case: name}

		g, err := baseline.Greedy1D(in)
		if err != nil {
			return nil, fmt.Errorf("%s greedy: %w", name, err)
		}
		row.Results = append(row.Results, resultFromSolution("Greedy[24]", g))

		h, err := baseline.Heuristic1D(ctx, in, baseline.Heuristic1DOptions{Seed: cfg.Seed})
		if err != nil {
			return nil, fmt.Errorf("%s heuristic: %w", name, err)
		}
		row.Results = append(row.Results, resultFromSolution("[24]", h))

		r, err := baseline.RowHeuristic1D(in)
		if err != nil {
			return nil, fmt.Errorf("%s row heuristic: %w", name, err)
		}
		row.Results = append(row.Results, resultFromSolution("[25]", r))

		eopt := oned.Defaults()
		eopt.Workers = cfg.Workers
		e, _, err := oned.Solve(ctx, in, eopt)
		if err != nil {
			return nil, fmt.Errorf("%s e-blow: %w", name, err)
		}
		row.Results = append(row.Results, resultFromSolution("E-BLOW", e))

		rows = append(rows, row)
	}
	return rows, nil
}

// Table4 reproduces the 2DOSP comparison: greedy, the prior-work SA
// floorplanner [24], and E-BLOW.
func Table4(ctx context.Context, cases []string, cfg Config) ([]Row, error) {
	cfg = cfg.withDefaults()
	var rows []Row
	for _, name := range cases {
		in, err := gen.ByName(name)
		if err != nil {
			return nil, err
		}
		row := Row{Case: name}

		g, err := baseline.Greedy2D(in)
		if err != nil {
			return nil, fmt.Errorf("%s greedy: %w", name, err)
		}
		row.Results = append(row.Results, resultFromSolution("Greedy[24]", g))

		saCtx, cancel := context.WithTimeout(ctx, cfg.SATimeLimit)
		sa, err := baseline.SA2D(saCtx, in, baseline.SA2DOptions{Seed: cfg.Seed, Workers: cfg.Workers})
		cancel()
		if err != nil {
			return nil, fmt.Errorf("%s SA: %w", name, err)
		}
		row.Results = append(row.Results, resultFromSolution("[24]", sa))

		opt := twod.Defaults()
		opt.Seed = cfg.Seed
		opt.Workers = cfg.Workers
		eCtx, cancel := context.WithTimeout(ctx, cfg.EBlow2DTimeLimit)
		e, _, err := twod.SolveClustered(eCtx, in, opt)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("%s e-blow: %w", name, err)
		}
		row.Results = append(row.Results, resultFromSolution("E-BLOW", e))

		rows = append(rows, row)
	}
	return rows, nil
}

// Table5 compares the exact ILP formulations against E-BLOW on the tiny 1T/2T
// cases. A missing writing time (-1) means the ILP hit its time limit without
// an incumbent, mirroring the "NA" entries of the paper.
func Table5(ctx context.Context, cfg Config) ([]Row, error) {
	cfg = cfg.withDefaults()
	var rows []Row
	for _, name := range Table5Cases() {
		in, err := gen.ByName(name)
		if err != nil {
			return nil, err
		}
		row := Row{Case: name}

		var exactRes *exact.Result
		eopt := exact.Options{Workers: cfg.Workers}
		exactCtx, cancel := context.WithTimeout(ctx, cfg.ExactTimeLimit)
		if in.Kind == core.OneD {
			exactRes, err = exact.Solve1D(exactCtx, in, eopt)
		} else {
			exactRes, err = exact.Solve2D(exactCtx, in, eopt)
		}
		cancel()
		if err != nil {
			return nil, fmt.Errorf("%s exact: %w", name, err)
		}
		ilpResult := AlgoResult{Algorithm: "ILP", WritingTime: -1, CPU: exactRes.Elapsed, Optimal: exactRes.Optimal}
		if exactRes.Solution != nil {
			ilpResult.WritingTime = exactRes.Solution.WritingTime
			ilpResult.Characters = exactRes.Solution.NumSelected()
		}
		row.Results = append(row.Results, ilpResult)

		var heur *core.Solution
		if in.Kind == core.OneD {
			hopt := oned.Defaults()
			hopt.Workers = cfg.Workers
			heur, _, err = oned.Solve(ctx, in, hopt)
		} else {
			opt := twod.Defaults()
			opt.Seed = cfg.Seed
			opt.Workers = cfg.Workers
			heur, _, err = twod.SolveClustered(ctx, in, opt)
		}
		if err != nil {
			return nil, fmt.Errorf("%s e-blow: %w", name, err)
		}
		row.Results = append(row.Results, resultFromSolution("E-BLOW", heur))
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig5 returns the unsolved-character counts per successive-rounding
// iteration for the given 1D cases (Fig. 5 of the paper).
func Fig5(ctx context.Context, cases []string, cfg Config) (map[string][]int, error) {
	out := make(map[string][]int)
	for _, name := range cases {
		in, err := gen.ByName(name)
		if err != nil {
			return nil, err
		}
		opt := oned.Defaults()
		opt.CollectTrace = true
		opt.Workers = cfg.Workers
		_, trace, err := oned.Solve(ctx, in, opt)
		if err != nil {
			return nil, err
		}
		out[name] = trace.UnsolvedPerIteration
	}
	return out, nil
}

// Fig6 returns the histogram (10 buckets of width 0.1) of the fractional LP
// values in the last rounding iteration of the given case (Fig. 6).
func Fig6(ctx context.Context, caseName string, cfg Config) ([]int, error) {
	in, err := gen.ByName(caseName)
	if err != nil {
		return nil, err
	}
	opt := oned.Defaults()
	opt.CollectTrace = true
	opt.Workers = cfg.Workers
	_, trace, err := oned.Solve(ctx, in, opt)
	if err != nil {
		return nil, err
	}
	hist := make([]int, 10)
	for _, v := range trace.LastLPValues {
		b := int(v * 10)
		if b < 0 {
			b = 0
		}
		if b > 9 {
			b = 9
		}
		hist[b]++
	}
	return hist, nil
}

// AblationRow compares E-BLOW-0 (no fast convergence, no post-insertion)
// against E-BLOW-1 on one case (Figs. 11 and 12).
type AblationRow struct {
	Case           string
	T0, T1         int64
	CPU0, CPU1     time.Duration
	Chars0, Chars1 int
}

// Ablation runs the E-BLOW-0 vs E-BLOW-1 comparison of Figs. 11 and 12.
func Ablation(ctx context.Context, cases []string, cfg Config) ([]AblationRow, error) {
	var rows []AblationRow
	for _, name := range cases {
		in, err := gen.ByName(name)
		if err != nil {
			return nil, err
		}
		opt0 := oned.Defaults()
		opt0.EnableFastConvergence = false
		opt0.EnablePostInsertion = false
		opt0.Workers = cfg.Workers
		s0, _, err := oned.Solve(ctx, in, opt0)
		if err != nil {
			return nil, err
		}
		opt1 := oned.Defaults()
		opt1.Workers = cfg.Workers
		s1, _, err := oned.Solve(ctx, in, opt1)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Case: name,
			T0:   s0.WritingTime, T1: s1.WritingTime,
			CPU0: s0.Runtime, CPU1: s1.Runtime,
			Chars0: s0.NumSelected(), Chars1: s1.NumSelected(),
		})
	}
	return rows, nil
}

// FormatRows renders rows as a fixed-width text table with one column group
// per algorithm (T, char#, CPU), in the style of the paper's tables.
func FormatRows(title string, rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	if len(rows) == 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "%-8s", "case")
	for _, r := range rows[0].Results {
		fmt.Fprintf(&b, " | %-30s", r.Algorithm)
	}
	fmt.Fprintln(&b)
	fmt.Fprintf(&b, "%-8s", "")
	for range rows[0].Results {
		fmt.Fprintf(&b, " | %10s %8s %10s", "T", "char#", "CPU")
	}
	fmt.Fprintln(&b)
	sums := make([]float64, len(rows[0].Results))
	valid := make([]int, len(rows[0].Results))
	for _, row := range rows {
		fmt.Fprintf(&b, "%-8s", row.Case)
		for i, r := range row.Results {
			t := "NA"
			if r.WritingTime >= 0 {
				t = fmt.Sprintf("%d", r.WritingTime)
				sums[i] += float64(r.WritingTime)
				valid[i]++
			}
			fmt.Fprintf(&b, " | %10s %8d %10s", t, r.Characters, formatDur(r.CPU))
		}
		fmt.Fprintln(&b)
	}
	// Ratio line relative to the last column group (E-BLOW), as in the paper.
	last := len(sums) - 1
	if last >= 0 && sums[last] > 0 && valid[last] == len(rows) {
		fmt.Fprintf(&b, "%-8s", "ratio")
		for i := range sums {
			if valid[i] == len(rows) {
				fmt.Fprintf(&b, " | %10.2f %8s %10s", sums[i]/sums[last], "", "")
			} else {
				fmt.Fprintf(&b, " | %10s %8s %10s", "-", "", "")
			}
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// FormatFig5 renders the per-iteration unsolved counts.
func FormatFig5(data map[string][]int) string {
	var b strings.Builder
	b.WriteString("Figure 5: unsolved characters per LP rounding iteration\n")
	names := make([]string, 0, len(data))
	for name := range data {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "%-6s %v\n", name, data[name])
	}
	return b.String()
}

// FormatFig6 renders the last-LP value histogram.
func FormatFig6(caseName string, hist []int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: distribution of LP values in the last iteration (%s)\n", caseName)
	for i, c := range hist {
		fmt.Fprintf(&b, "%.1f-%.1f: %d\n", float64(i)/10, float64(i+1)/10, c)
	}
	return b.String()
}

// FormatAblation renders the E-BLOW-0 vs E-BLOW-1 comparison.
func FormatAblation(rows []AblationRow) string {
	var b strings.Builder
	b.WriteString("Figures 11/12: E-BLOW-0 (no fast convergence, no post-insertion) vs E-BLOW-1\n")
	fmt.Fprintf(&b, "%-8s %12s %12s %8s %12s %12s %8s\n", "case", "T(E-BLOW-0)", "T(E-BLOW-1)", "ratio", "CPU(0)", "CPU(1)", "ratio")
	var sumT0, sumT1 float64
	var sumC0, sumC1 float64
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %12d %12d %8.3f %12s %12s %8.3f\n",
			r.Case, r.T0, r.T1, ratio(r.T1, r.T0), formatDur(r.CPU0), formatDur(r.CPU1),
			ratio(int64(r.CPU1), int64(r.CPU0)))
		sumT0 += float64(r.T0)
		sumT1 += float64(r.T1)
		sumC0 += float64(r.CPU0)
		sumC1 += float64(r.CPU1)
	}
	if sumT0 > 0 && sumC0 > 0 {
		fmt.Fprintf(&b, "%-8s %12s %12s %8.3f %12s %12s %8.3f\n", "avg", "", "", sumT1/sumT0, "", "", sumC1/sumC0)
	}
	return b.String()
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func formatDur(d time.Duration) string {
	return fmt.Sprintf("%.3fs", d.Seconds())
}
