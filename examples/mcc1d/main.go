// MCC 1D stencil planning: run the full benchmark case 1M-2 (1000 standard
// cell characters, 10 character projections) and compare E-BLOW against the
// prior-work baselines, showing how the MCC objective (the slowest region)
// differs from simply maximizing the total shot-count reduction.
package main

import (
	"context"
	"fmt"
	"log"

	"eblow"
)

func main() {
	in, err := eblow.Benchmark("1M-2")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("benchmark %s: %d candidates, %d regions, stencil %dx%d um\n\n",
		in.Name, in.NumCharacters(), in.NumRegions, in.StencilWidth, in.StencilHeight)

	// Every planner is a registered strategy behind the one SolveWith entry
	// point; the zero Params run E-BLOW.
	planners := []struct {
		name   string
		params eblow.Params
	}{
		{"Greedy", eblow.Params{Strategies: []string{"greedy"}}},
		{"Heuristic [24]", eblow.Params{Strategies: []string{"heuristic24"}, Seed: 1}},
		{"Row heuristic [25]", eblow.Params{Strategies: []string{"row25"}}},
		{"E-BLOW", eblow.Params{}},
	}

	fmt.Printf("%-20s %12s %8s %10s   %s\n", "planner", "writing time", "chars", "runtime", "slowest/fastest region")
	for _, e := range planners {
		res, err := eblow.SolveWith(context.Background(), in, e.params)
		if err != nil {
			log.Fatal(err)
		}
		sol := res.Solution
		if err := sol.Validate(in); err != nil {
			log.Fatalf("%s produced an invalid plan: %v", e.name, err)
		}
		slowest, fastest := sol.RegionTimes[0], sol.RegionTimes[0]
		for _, t := range sol.RegionTimes {
			if t > slowest {
				slowest = t
			}
			if t < fastest {
				fastest = t
			}
		}
		fmt.Printf("%-20s %12d %8d %10s   %d / %d\n",
			e.name, sol.WritingTime, sol.NumSelected(), sol.Runtime.Round(1e6), slowest, fastest)
	}
	fmt.Println("\nThe MCC writing time is the slowest region: balancing the regions is what")
	fmt.Println("separates E-BLOW from planners that only maximize the total reduction.")
}
