// Command eblow plans an e-beam stencil for one OSP instance. The instance
// either comes from a JSON file (see cmd/ospgen) or is one of the named
// synthetic benchmarks; the planner is any strategy of the unified solver
// registry — E-BLOW by default, with the prior-work baselines, the exact
// ILP and a parallel portfolio race of all of them available for
// comparison. For a long-running batched service over the same solvers see
// cmd/eblowd.
//
// A portfolio race can be learned: -learn conditions the race order, the
// pruning of never-winning heavy entrants and the worker split on the
// statistics accumulated in -learn-path (and records this race's outcome
// back); -learn-report prints the learned schedule for the instance's shape
// without solving anything.
//
// Examples:
//
//	eblow -solvers
//	eblow -benchmark 1M-2
//	eblow -instance design.json -algorithm greedy
//	eblow -benchmark 1T-3 -algorithm exact -timeout 30s
//	eblow -benchmark 2D-1 -algorithm portfolio -timeout 10s -workers 8
//	eblow -benchmark 2D-1 -algorithm portfolio -learn -learn-path stats.json
//	eblow -benchmark 2D-1 -learn-report -learn-path stats.json
//	eblow -benchmark 2D-1 -out plan.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"time"

	"eblow"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("eblow: ")

	var (
		instancePath = flag.String("instance", "", "path to an instance JSON file")
		benchmark    = flag.String("benchmark", "", "name of a built-in benchmark (e.g. 1M-2); see cmd/ospgen -list")
		algorithm    = flag.String("algorithm", "eblow", "planner: any registered solver (see -solvers); heuristic24 maps to sa24 on 2D instances")
		listSolvers  = flag.Bool("solvers", false, "list the registered solvers and exit")
		timeout      = flag.Duration("timeout", 30*time.Second, "time limit for exact / annealing / portfolio planners")
		seed         = flag.Int64("seed", 1, "seed for randomized planners")
		workers      = flag.Int("workers", runtime.NumCPU(), "worker goroutines for the parallel solver stages (results are worker-count independent unless -timeout truncates an annealing run)")
		restarts     = flag.Int("restarts", 1, "independent annealing restarts for the SA-based planners (best-of wins)")
		outPath      = flag.String("out", "", "write the resulting stencil plan as JSON to this file")
		learnFlag    = flag.Bool("learn", false, "learned portfolio scheduling: order/prune the race by the win rates in -learn-path and record this race back (portfolio only)")
		learnPath    = flag.String("learn-path", eblow.DefaultLearnPath, "JSON statistics store for -learn / -learn-report")
		learnReport  = flag.Bool("learn-report", false, "print the learned race schedule for the instance's shape (static vs learned order, per-strategy stats) and exit")
	)
	flag.Parse()

	if *listSolvers {
		for _, info := range eblow.SolverInfos() {
			fmt.Printf("%-12s %-6s %s\n", info.Name, info.Kinds(), info.Doc)
		}
		return
	}

	in, err := loadInstance(*instancePath, *benchmark)
	if err != nil {
		log.Fatal(err)
	}

	if *learnReport {
		if err := reportLearned(in, *learnPath); err != nil {
			log.Fatal(err)
		}
		return
	}

	// Ctrl-C cancels the planner instead of killing the process mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	sol, err := run(ctx, in, *algorithm, *seed, *workers, *restarts, *timeout, *learnFlag, *learnPath)
	if err != nil {
		log.Fatal(err)
	}

	vsbOnly := in.WritingTime(make([]bool, in.NumCharacters()))
	fmt.Printf("instance      : %s (%s, %d characters, %d regions, stencil %dx%d)\n",
		in.Name, in.Kind, in.NumCharacters(), in.NumRegions, in.StencilWidth, in.StencilHeight)
	fmt.Printf("algorithm     : %s\n", sol.Algorithm)
	fmt.Printf("characters on stencil: %d\n", sol.NumSelected())
	fmt.Printf("writing time  : %d (pure VSB: %d, reduction %.1f%%)\n",
		sol.WritingTime, vsbOnly, 100*(1-float64(sol.WritingTime)/float64(vsbOnly)))
	fmt.Printf("region times  : %v\n", sol.RegionTimes)
	fmt.Printf("runtime       : %s\n", sol.Runtime)

	if *outPath != "" {
		data, err := json.MarshalIndent(sol, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*outPath, data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("plan written to %s\n", *outPath)
	}
}

func loadInstance(path, benchmark string) (*eblow.Instance, error) {
	switch {
	case path != "" && benchmark != "":
		return nil, fmt.Errorf("use either -instance or -benchmark, not both")
	case path != "":
		return eblow.ReadInstance(path)
	case benchmark != "":
		return eblow.Benchmark(benchmark)
	default:
		return nil, fmt.Errorf("one of -instance or -benchmark is required")
	}
}

// reportLearned prints the learned race schedule for the instance's shape:
// the static registry order next to the order the statistics in the store
// would race, the pruned entrants, and each strategy's per-shape record.
func reportLearned(in *eblow.Instance, path string) error {
	store, err := eblow.OpenLearn(path)
	if err != nil {
		return err
	}
	shape := eblow.Fingerprint(in)
	plan := eblow.PlanRace(store, in)
	fmt.Printf("instance      : %s (%s)\n", in.Name, in.Kind)
	fmt.Printf("shape         : %s\n", shape)
	fmt.Printf("store         : %s\n", path)
	fmt.Printf("static order  : %v\n", raceOrder(in.Kind))
	if plan.Learned {
		fmt.Printf("learned order : %v\n", plan.Order)
		if len(plan.Pruned) > 0 {
			fmt.Printf("pruned        : %v\n", plan.Pruned)
		} else {
			fmt.Printf("pruned        : none\n")
		}
	} else {
		fmt.Printf("learned order : (cold store for this shape; static order applies)\n")
	}
	if ss := store.Shape(shape); ss != nil {
		fmt.Printf("recorded races: %d\n", ss.Races)
		for _, name := range raceOrder(in.Kind) {
			s := ss.Strategies[name]
			if s == nil {
				continue
			}
			fmt.Printf("  %-12s %d/%d wins, best T=%d, avg %dms\n",
				name, s.Wins, s.Races, s.BestObjective, s.TotalElapsedMs/int64(s.Races))
		}
	} else {
		fmt.Printf("recorded races: 0\n")
	}
	return nil
}

// raceOrder lists the strategies of the default portfolio race for the
// kind, in race (registry) order.
func raceOrder(kind eblow.Kind) []string {
	var names []string
	for _, s := range eblow.SolverInfos() {
		if s.Racing && s.Supports(kind) {
			names = append(names, s.Name)
		}
	}
	return names
}

// run dispatches through the unified solver API: every algorithm name is a
// registry strategy, configured by one Params struct.
func run(ctx context.Context, in *eblow.Instance, algorithm string, seed int64, workers, restarts int, timeout time.Duration, learn bool, learnPath string) (*eblow.Solution, error) {
	// Historical shorthand: -algorithm heuristic24 meant the prior-work
	// baseline of the instance kind, which for 2D is the SA floorplanner.
	if algorithm == "heuristic24" && in.Kind == eblow.TwoD {
		algorithm = "sa24"
	}
	if _, ok := eblow.Lookup(algorithm); !ok {
		return nil, fmt.Errorf("unknown algorithm %q (have %s)", algorithm, strings.Join(eblow.SolverNames(), ", "))
	}

	p := eblow.Params{
		Workers:    workers,
		Seed:       seed,
		Restarts:   restarts,
		Strategies: []string{algorithm},
	}
	if learn {
		if algorithm != "portfolio" {
			log.Printf("note: -learn only affects the portfolio strategy, not %q", algorithm)
		}
		p.Learn = true
		p.LearnPath = learnPath
	}
	switch algorithm {
	case "eblow":
		// The 1D planner runs to completion like it always has. For 2D the
		// deadline truncates the annealing schedule to its best plan so
		// far; only a deadline that expires before annealing even starts
		// (pre-filter/clustering overrun) surfaces an error.
		if in.Kind == eblow.TwoD {
			p.Deadline = timeout
		}
	case "exact", "portfolio", "sa24":
		p.Deadline = timeout
	}

	res, err := eblow.SolveWith(ctx, in, p)
	if err != nil {
		return nil, err
	}
	if len(res.Runs) > 0 {
		names := make([]string, len(res.Runs))
		for i, r := range res.Runs {
			names[i] = r.Name
		}
		fmt.Printf("portfolio     : %s won among %v (race took %s)\n",
			res.Strategy, names, res.Elapsed.Round(time.Millisecond))
	}
	if res.Plan != nil && res.Plan.Learned {
		fmt.Printf("learned plan  : order %v, pruned %v (shape %s)\n",
			res.Plan.Order, res.Plan.Pruned, res.Plan.Shape)
	}
	if res.Exact != nil && !res.Exact.Optimal {
		fmt.Printf("note: ILP hit its limit; solution is feasible but not proven optimal\n")
	}
	return res.Solution, nil
}
