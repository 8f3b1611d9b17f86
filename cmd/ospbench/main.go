// Command ospbench regenerates the tables and figures of the E-BLOW paper's
// evaluation section on the synthetic benchmark suite, measures the
// parallel portfolio race, and writes the perf records (-perf, -lp-perf).
//
// Examples:
//
//	ospbench -table 3
//	ospbench -table 4 -sa-time 10s -eblow-time 5s
//	ospbench -table 5 -exact-time 30s
//	ospbench -figure 5
//	ospbench -figure 11
//	ospbench -portfolio 2D-1 -timeout 20s
//	ospbench -workers-sweep 1T-3 -sweep-workers 1,2,4,8 -exact-time 10s
//	ospbench -perf small-1M -bench-json BENCH_small-1M.json
//	ospbench -lp-perf small-1M -bench-json BENCH_lp.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"time"

	"eblow"
	"eblow/internal/core"
	"eblow/internal/floorsa"
	"eblow/internal/gen"
	"eblow/internal/oned"
	"eblow/internal/pack2d"
	"eblow/internal/report"
	"eblow/internal/solver"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ospbench: ")

	var (
		table        = flag.Int("table", 0, "table to regenerate: 3, 4 or 5")
		figure       = flag.Int("figure", 0, "figure to regenerate: 5, 6, 11 or 12")
		portfolio    = flag.String("portfolio", "", "race the solver portfolio on this benchmark case (e.g. 2D-1), once with 1 worker and once with -workers, and report both wall-clock times")
		workersSweep = flag.String("workers-sweep", "", "run the exact branch and bound on this benchmark case (e.g. 1T-3) at every -sweep-workers count and report the node-throughput scaling curve")
		perf         = flag.String("perf", "", "measure the solver hot paths on this case (e.g. small-1M, 1M-5, small-2M): annealer moves/sec for 2D, solve + relaxation wall-clock at 1 and -workers workers for 1D")
		lpPerf       = flag.String("lp-perf", "", "measure the sparse LP engine on this 1D case: the served planner's fast-ILP binaries and pivots, and relaxation pivots/sec with the simplex backend")
		benchJSON    = flag.String("bench-json", "", "write the -perf record as JSON to this file (the BENCH_*.json perf trajectory)")
		throughput   = flag.Bool("throughput", false, "benchmark the job service on a generated mixed workload: FIFO drain vs the cost-order drain, reporting jobs/sec and SLO goodput for both plus a cross-mode result-digest identity check")
		tpJobs       = flag.Int("tp-jobs", 120, "workload size for -throughput")
		tpSpan       = flag.Duration("tp-span", 2*time.Second, "open-loop arrival window for -throughput: jobs are submitted evenly across this span")
		tpSLO        = flag.Duration("tp-slo", 400*time.Millisecond, "per-job latency budget for -throughput goodput (submit to finish)")
		tpWorkers    = flag.Int("tp-workers", 4, "service worker-pool size for -throughput")
		assertSpdup  = flag.Float64("assert-speedup", 0, "fail -throughput unless the cost-order drain's goodput is at least this multiple of the FIFO drain's (0 disables the assertion)")
		benchSummary = flag.Bool("bench-summary", false, "aggregate every BENCH_*.json record in the current directory into one table")
		sweepWorkers = flag.String("sweep-workers", "1,2,4,8", "comma-separated worker counts for -workers-sweep")
		sweepJSON    = flag.Bool("json", false, "emit the -workers-sweep result as JSON (for BENCH tracking) instead of a table")
		cases        = flag.String("cases", "", "comma-separated case list (default: the paper's cases)")
		seed         = flag.Int64("seed", 1, "seed for randomized planners")
		workers      = flag.Int("workers", runtime.NumCPU(), "worker goroutines for the parallel solver stages")
		restarts     = flag.Int("restarts", 2, "annealing restarts for the portfolio race")
		timeout      = flag.Duration("timeout", 30*time.Second, "deadline for each portfolio race")
		saTime       = flag.Duration("sa-time", 20*time.Second, "time limit per case for the prior-work 2D annealer")
		eblowTime    = flag.Duration("eblow-time", 10*time.Second, "time limit per case for the E-BLOW 2D annealer")
		exactTime    = flag.Duration("exact-time", 20*time.Second, "time limit per case for the exact ILP (Table 5, -workers-sweep)")
	)
	flag.Parse()

	cfg := report.Config{
		Seed: *seed, SATimeLimit: *saTime, EBlow2DTimeLimit: *eblowTime,
		ExactTimeLimit: *exactTime, Workers: *workers,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	caseList := func(def []string) []string {
		if *cases == "" {
			return def
		}
		return strings.Split(*cases, ",")
	}

	switch {
	case *benchSummary:
		fail(runBenchSummary("."))
	case *throughput:
		fail(runThroughput(ctx, *tpJobs, *tpWorkers, *tpSpan, *tpSLO, *seed, *assertSpdup, *benchJSON))
	case *lpPerf != "":
		fail(runLPPerf(ctx, *lpPerf, *benchJSON))
	case *perf != "":
		fail(runPerf(ctx, *perf, *workers, *seed, *benchJSON))
	case *workersSweep != "":
		fail(sweepExactWorkers(ctx, *workersSweep, *sweepWorkers, *exactTime, *sweepJSON))
	case *portfolio != "":
		fail(racePortfolio(ctx, *portfolio, *workers, *restarts, *seed, *timeout))
	case *table == 3:
		rows, err := report.Table3(ctx, caseList(report.Table3Cases()), cfg)
		fail(err)
		fmt.Print(report.FormatRows("Table 3 (1DOSP): Greedy / [24] / [25] / E-BLOW", rows))
	case *table == 4:
		rows, err := report.Table4(ctx, caseList(report.Table4Cases()), cfg)
		fail(err)
		fmt.Print(report.FormatRows("Table 4 (2DOSP): Greedy / [24] / E-BLOW", rows))
	case *table == 5:
		rows, err := report.Table5(ctx, cfg)
		fail(err)
		fmt.Print(report.FormatRows("Table 5: exact ILP vs E-BLOW", rows))
	case *figure == 5:
		data, err := report.Fig5(ctx, caseList([]string{"1M-1", "1M-2", "1M-3", "1M-4"}), cfg)
		fail(err)
		fmt.Print(report.FormatFig5(data))
	case *figure == 6:
		names := caseList([]string{"1M-1"})
		hist, err := report.Fig6(ctx, names[0], cfg)
		fail(err)
		fmt.Print(report.FormatFig6(names[0], hist))
	case *figure == 11, *figure == 12:
		rows, err := report.Ablation(ctx, caseList(report.Table3Cases()), cfg)
		fail(err)
		fmt.Print(report.FormatAblation(rows))
	default:
		log.Fatal("specify -table 3|4|5, -figure 5|6|11|12, -portfolio <case>, -workers-sweep <case> or -perf <case>")
	}
}

// perfRecord is one -perf measurement, shaped for the BENCH_*.json perf
// trajectory log. 2D cases fill the annealer fields (wall-clock
// milliseconds), 1D cases the planner fields (microseconds).
type perfRecord struct {
	Case    string `json:"case"`
	Kind    string `json:"kind"`
	Workers int    `json:"workers"`

	// 2D: incremental sequence-pair annealer throughput.
	Moves       int     `json:"moves,omitempty"`
	AnnealMs    int64   `json:"annealMs,omitempty"`
	MovesPerSec float64 `json:"movesPerSec,omitempty"`

	// 1D: full planner and LP-relaxation wall-clock at 1 and at Workers
	// workers, under the default shared-stencil configuration, plus the
	// same planner run with one auto-derived row band per region so the
	// block-decomposed relaxation path is exercised and tracked too.
	// Microseconds, so the small CI cases still resolve.
	SolveUs1W       int64 `json:"solveUs1Worker,omitempty"`
	RelaxUs1W       int64 `json:"relaxUs1Worker,omitempty"`
	SolveUs         int64 `json:"solveUs,omitempty"`
	RelaxUs         int64 `json:"relaxUs,omitempty"`
	RelaxBlocksUs1W int64 `json:"relaxBlocksUs1Worker,omitempty"`
	RelaxBlocksUs   int64 `json:"relaxBlocksUs,omitempty"`
}

// perfInstance resolves a -perf case name: "small-<family>" maps to the
// reduced deterministic instances, anything else to the full benchmarks.
func perfInstance(name string) (*core.Instance, error) {
	if fam, ok := strings.CutPrefix(name, "small-"); ok {
		return gen.SmallFamily(fam)
	}
	return eblow.Benchmark(name)
}

// runPerf measures the hot paths reworked for incremental evaluation — the
// sequence-pair annealer (2D) and the block-decomposed relaxation planner
// (1D) — and emits one perf-trajectory record.
func runPerf(ctx context.Context, caseName string, workers int, seed int64, jsonPath string) error {
	in, err := perfInstance(caseName)
	if err != nil {
		return err
	}
	rec := perfRecord{Case: in.Name, Kind: in.Kind.String(), Workers: workers}

	if in.Kind == eblow.TwoD {
		blocks := make([]floorsa.Block, in.NumCharacters())
		for i, c := range in.Characters {
			reds := make([]int64, in.NumRegions)
			for r := range reds {
				reds[r] = in.Reduction(i, r)
			}
			blocks[i] = floorsa.Block{
				Block: pack2d.Block{
					W: c.Width, H: c.Height,
					BlankL: c.BlankLeft, BlankR: c.BlankRight,
					BlankT: c.BlankTop, BlankB: c.BlankBottom,
				},
				Reductions: reds,
			}
		}
		budget := 40 * in.NumCharacters()
		// One restart on one goroutine: the record measures single-core
		// move throughput, not restart parallelism.
		rec.Workers = 1
		start := time.Now()
		res := floorsa.Pack(ctx, blocks, in.VSBTime(), in.StencilWidth, in.StencilHeight,
			floorsa.Options{Seed: seed, MoveBudget: budget, Restarts: 1})
		elapsed := time.Since(start)
		rec.Moves = res.Moves
		rec.AnnealMs = elapsed.Milliseconds()
		if s := elapsed.Seconds(); s > 0 {
			rec.MovesPerSec = float64(res.Moves) / s
		}
		fmt.Printf("%s (%s): %d moves in %s -> %.0f moves/sec\n",
			in.Name, in.Kind, res.Moves, elapsed.Round(time.Millisecond), rec.MovesPerSec)
	} else {
		solve := func(w int, groups []oned.RowGroup) (time.Duration, time.Duration, error) {
			opt := oned.Defaults()
			opt.Workers = w
			opt.RowGroups = groups
			start := time.Now()
			_, trace, err := oned.Solve(ctx, in, opt)
			if err != nil {
				return 0, 0, err
			}
			return time.Since(start), trace.RelaxElapsed, nil
		}
		wall1, relax1, err := solve(1, nil)
		if err != nil {
			return err
		}
		wallN, relaxN, err := solve(workers, nil)
		if err != nil {
			return err
		}
		rec.SolveUs1W, rec.RelaxUs1W = wall1.Microseconds(), relax1.Microseconds()
		rec.SolveUs, rec.RelaxUs = wallN.Microseconds(), relaxN.Microseconds()
		fmt.Printf("%s (%s): solve %s (relaxation %s) at 1 worker, %s (relaxation %s) at %d workers\n",
			in.Name, in.Kind, wall1.Round(time.Microsecond), relax1.Round(time.Microsecond),
			wallN.Round(time.Microsecond), relaxN.Round(time.Microsecond), workers)
		// The shared-stencil default runs the relaxation as one block; the
		// generator's per-column-cell banding exercises the decomposed path
		// so the trajectory can catch regressions there.
		if groups := gen.CellBands(in); groups != nil {
			_, blocks1, err := solve(1, groups)
			if err != nil {
				return err
			}
			_, blocksN, err := solve(workers, groups)
			if err != nil {
				return err
			}
			rec.RelaxBlocksUs1W = blocks1.Microseconds()
			rec.RelaxBlocksUs = blocksN.Microseconds()
			fmt.Printf("%s (%s): banded relaxation (%d blocks max) %s at 1 worker, %s at %d workers\n",
				in.Name, in.Kind, in.NumRegions, blocks1.Round(time.Microsecond),
				blocksN.Round(time.Microsecond), workers)
		}
	}

	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("perf record written to %s\n", jsonPath)
	}
	return nil
}

// lpPerfRecord is one -lp-perf measurement, shaped for the BENCH_lp.json
// perf trajectory. All counts come from Workers=1 runs so they are
// deterministic run to run; only RelaxElapsedUs and PivotsPerSec carry
// wall clock.
type lpPerfRecord struct {
	Case string `json:"case"`
	Kind string `json:"kind"`

	// Fast-convergence branch and bound of the served planner (default
	// backend): binaries handed to the ILP and the total node-relaxation
	// pivots, warm-started from each node's parent basis.
	FastILPVars   int `json:"fastIlpVars"`
	FastILPPivots int `json:"fastIlpPivots"`

	// Successive-rounding relaxation with the simplex backend.
	RelaxSolves    int     `json:"relaxSolves"`
	RelaxPivots    int     `json:"relaxPivots"`
	RelaxElapsedUs int64   `json:"relaxElapsedUs"`
	PivotsPerSec   float64 `json:"pivotsPerSec"`
}

// runLPPerf runs the 1D planner twice on one case: once as served (default
// backend), which exercises the sparse simplex only in the fast-ILP branch
// and bound, and once with the simplex relaxation backend, which reports
// the sparse simplex's pivot throughput on the successive-rounding LPs.
func runLPPerf(ctx context.Context, caseName, jsonPath string) error {
	in, err := perfInstance(caseName)
	if err != nil {
		return err
	}
	if in.Kind != core.OneD {
		return fmt.Errorf("-lp-perf needs a 1D case; %s is %s", in.Name, in.Kind)
	}
	solve := func(backend oned.LPBackend) (*oned.Trace, error) {
		opt := oned.Defaults()
		opt.Backend = backend
		opt.Workers = 1
		_, trace, err := oned.Solve(ctx, in, opt)
		return trace, err
	}
	served, err := solve(oned.StructuredLP)
	if err != nil {
		return err
	}
	simplex, err := solve(oned.SimplexLP)
	if err != nil {
		return err
	}

	rec := lpPerfRecord{
		Case: in.Name, Kind: in.Kind.String(),
		FastILPVars:    served.FastILPVariables,
		FastILPPivots:  served.FastILPPivots,
		RelaxSolves:    simplex.RelaxSolves,
		RelaxPivots:    simplex.RelaxPivots,
		RelaxElapsedUs: simplex.RelaxElapsed.Microseconds(),
	}
	if s := simplex.RelaxElapsed.Seconds(); s > 0 {
		rec.PivotsPerSec = float64(simplex.RelaxPivots) / s
	}

	fmt.Printf("%s (%s): fast-ILP branch and bound: %d binaries, %d pivots\n",
		in.Name, in.Kind, rec.FastILPVars, rec.FastILPPivots)
	fmt.Printf("simplex relaxation: %d solves, %d pivots in %s -> %.0f pivots/sec\n",
		rec.RelaxSolves, rec.RelaxPivots, simplex.RelaxElapsed.Round(time.Microsecond), rec.PivotsPerSec)

	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("lp perf record written to %s\n", jsonPath)
	}
	return nil
}

// sweepRun is one -workers-sweep measurement, shaped for the BENCH json log.
type sweepRun struct {
	Case        string  `json:"case"`
	Workers     int     `json:"workers"`
	Status      string  `json:"status"`
	Objective   int64   `json:"objective"`
	Nodes       int     `json:"nodes"`
	ElapsedMs   int64   `json:"elapsedMs"`
	NodesPerSec float64 `json:"nodesPerSec"`
	ThroughputX float64 `json:"throughputX"` // node throughput relative to workers=1
}

// sweepExactWorkers runs the exact branch and bound on one benchmark case at
// each requested worker count under the same time limit and reports the
// scaling curve: wall clock, explored nodes, node throughput, and the
// throughput ratio against the single-worker run. The solver guarantees a
// worker-count-independent result, so the sweep also cross-checks that the
// status and objective agree across all runs.
func sweepExactWorkers(ctx context.Context, caseName, workerList string, limit time.Duration, asJSON bool) error {
	in, err := eblow.Benchmark(caseName)
	if err != nil {
		return err
	}
	var counts []int
	for _, f := range strings.Split(workerList, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || w < 1 {
			return fmt.Errorf("bad -sweep-workers entry %q", f)
		}
		counts = append(counts, w)
	}
	if len(counts) == 0 {
		return fmt.Errorf("-sweep-workers lists no worker counts")
	}
	if !asJSON {
		fmt.Printf("exact workers sweep on %s (%s, %d characters, %d regions), time limit %s per run\n",
			in.Name, in.Kind, in.NumCharacters(), in.NumRegions, limit)
	}

	var runs []sweepRun
	for _, w := range counts {
		// A run that hits the limit with no incumbent is still a valid
		// throughput measurement, not an error.
		var ex *eblow.ExactResult
		r, err := eblow.SolveWith(ctx, in, eblow.Params{Strategies: []string{"exact"}, Deadline: limit, Workers: w})
		var none *eblow.NoIncumbentError
		switch {
		case errors.As(err, &none):
			ex = none.Exact
		case err != nil:
			return fmt.Errorf("workers=%d: %w", w, err)
		default:
			ex = r.Exact
		}
		run := sweepRun{
			Case:      in.Name,
			Workers:   w,
			Status:    ex.Status.String(),
			Objective: -1,
			Nodes:     ex.Nodes,
			ElapsedMs: ex.Elapsed.Milliseconds(),
		}
		if ex.Solution != nil {
			run.Objective = ex.Solution.WritingTime
		}
		if s := ex.Elapsed.Seconds(); s > 0 {
			run.NodesPerSec = float64(ex.Nodes) / s
		}
		run.ThroughputX = 1
		if len(runs) > 0 && runs[0].NodesPerSec > 0 {
			run.ThroughputX = run.NodesPerSec / runs[0].NodesPerSec
		}
		runs = append(runs, run)
		if !asJSON {
			fmt.Printf("workers=%-3d wall %-10s status %-9s T=%-8d nodes=%-8d nodes/s=%-10.1f x%.2f\n",
				run.Workers, ex.Elapsed.Round(time.Millisecond), run.Status, run.Objective,
				run.Nodes, run.NodesPerSec, run.ThroughputX)
		}
	}
	if asJSON {
		return json.NewEncoder(os.Stdout).Encode(runs)
	}
	// The determinism cross-check: every run must agree on status and
	// objective (node counts may differ — a faster incumbent skips work).
	for _, r := range runs[1:] {
		if r.Status != runs[0].Status || r.Objective != runs[0].Objective {
			fmt.Printf("WARNING: workers=%d returned %s T=%d, workers=%d returned %s T=%d — time limit truncated the runs differently\n",
				runs[0].Workers, runs[0].Status, runs[0].Objective, r.Workers, r.Status, r.Objective)
			return nil
		}
	}
	fmt.Printf("identical status/objective at every worker count\n")
	return nil
}

// racePortfolio runs the same seeded portfolio race twice — once on a
// single worker and once on the requested worker count — and reports both
// wall-clock times plus the (identical) winning plans, demonstrating the
// parallel speedup without changing the result. The race goes through the
// unified solver API: strategy "portfolio" with one Params struct.
func racePortfolio(ctx context.Context, caseName string, workers, restarts int, seed int64, timeout time.Duration) error {
	in, err := eblow.Benchmark(caseName)
	if err != nil {
		return err
	}
	fmt.Printf("portfolio race on %s (%s, %d characters, %d regions), strategies %v, deadline %s\n",
		in.Name, in.Kind, in.NumCharacters(), in.NumRegions, solver.RacingNames(in.Kind), timeout)

	type outcome struct {
		workers int
		res     *eblow.Result
	}
	runsAt := []int{1, workers}
	if workers <= 1 {
		runsAt = runsAt[:1] // nothing to compare against
	}
	var outcomes []outcome
	for _, w := range runsAt {
		res, err := eblow.SolveWith(ctx, in, eblow.Params{
			Workers:    w,
			Deadline:   timeout,
			Seed:       seed,
			Restarts:   restarts,
			Strategies: []string{"portfolio"},
		})
		if err != nil {
			return fmt.Errorf("workers=%d: %w", w, err)
		}
		outcomes = append(outcomes, outcome{w, res})
		fmt.Printf("workers=%-3d wall %-10s winner %-12s T=%d chars=%d\n",
			w, res.Elapsed.Round(time.Millisecond), res.Strategy,
			res.Objective, res.Solution.NumSelected())
		for _, r := range res.Runs {
			status := fmt.Sprintf("T=%d", int64OrNA(r))
			if r.Err != nil {
				status = fmt.Sprintf("dropped (%v)", r.Err)
			}
			fmt.Printf("  %-12s %-10s %s\n", r.Name, r.Elapsed.Round(time.Millisecond), status)
		}
	}
	if len(outcomes) == 2 && outcomes[1].workers > 1 {
		a, b := outcomes[0].res, outcomes[1].res
		fmt.Printf("speedup: %.2fx (%s -> %s)", a.Elapsed.Seconds()/b.Elapsed.Seconds(),
			a.Elapsed.Round(time.Millisecond), b.Elapsed.Round(time.Millisecond))
		if a.Objective == b.Objective && a.Strategy == b.Strategy {
			fmt.Printf(", identical result either way\n")
		} else {
			fmt.Printf(", results differ (deadline cut strategies off)\n")
		}
	}
	return nil
}

func int64OrNA(r eblow.Run) int64 {
	if r.Solution == nil {
		return -1
	}
	return r.Solution.WritingTime
}

func fail(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
