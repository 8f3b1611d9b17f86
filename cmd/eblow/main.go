// Command eblow plans an e-beam stencil for one OSP instance. The instance
// either comes from a JSON file (see cmd/ospgen) or is one of the named
// synthetic benchmarks; the planner is any strategy of the unified solver
// registry — E-BLOW by default, with the prior-work baselines, the exact
// ILP and a parallel portfolio race of all of them available for
// comparison. For a long-running batched service over the same solvers see
// cmd/eblowd.
//
// Examples:
//
//	eblow -solvers
//	eblow -benchmark 1M-2
//	eblow -instance design.json -algorithm greedy
//	eblow -benchmark 1T-3 -algorithm exact -timeout 30s
//	eblow -benchmark 2D-1 -algorithm portfolio -timeout 10s -workers 8
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

	// Ctrl-C cancels the planner instead of killing the process mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	sol, err := run(ctx, in, *algorithm, *seed, *workers, *restarts, *timeout)
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

// run dispatches through the unified solver API: every algorithm name is a
// registry strategy, configured by one Params struct.
func run(ctx context.Context, in *eblow.Instance, algorithm string, seed int64, workers, restarts int, timeout time.Duration) (*eblow.Solution, error) {
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
	// Only the exact search, the race and the annealer take the deadline;
	// the other planners run to completion.
	switch algorithm {
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
	if res.Exact != nil && !res.Exact.Optimal {
		fmt.Printf("note: ILP hit its limit; solution is feasible but not proven optimal\n")
	}
	return res.Solution, nil
}
