// Command ospbench regenerates the tables and figures of the E-BLOW paper's
// evaluation section on the synthetic benchmark suite, measures the
// parallel portfolio race and the exact solver's worker scaling, and
// benchmarks the job service's FIFO and cost-order drains (-throughput).
// Solver hot-path timings are go test benchmarks, not ospbench modes.
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
//	ospbench -throughput -tp-jobs 48 -tp-span 800ms -assert-speedup 1.0 -bench-json BENCH_throughput.json
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
		benchJSON    = flag.String("bench-json", "", "write the -throughput record as JSON to this file (e.g. BENCH_throughput.json)")
		throughput   = flag.Bool("throughput", false, "benchmark the job service on a generated mixed workload: FIFO drain vs the cost-order drain, reporting jobs/sec and SLO goodput for both plus a cross-mode result-digest identity check")
		tpJobs       = flag.Int("tp-jobs", 120, "workload size for -throughput")
		tpSpan       = flag.Duration("tp-span", 2*time.Second, "open-loop arrival window for -throughput: jobs are submitted evenly across this span")
		tpSLO        = flag.Duration("tp-slo", 400*time.Millisecond, "per-job latency budget for -throughput goodput (submit to finish)")
		tpWorkers    = flag.Int("tp-workers", 4, "service worker-pool size for -throughput")
		assertSpdup  = flag.Float64("assert-speedup", 0, "fail -throughput unless the cost-order drain's goodput is at least this multiple of the FIFO drain's (0 disables the assertion)")
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
	case *throughput:
		fail(runThroughput(ctx, *tpJobs, *tpWorkers, *tpSpan, *tpSLO, *seed, *assertSpdup, *benchJSON))
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
		log.Fatal("specify -table 3|4|5, -figure 5|6|11|12, -portfolio <case>, -workers-sweep <case> or -throughput")
	}
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
