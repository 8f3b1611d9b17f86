// Exact ILP vs E-BLOW: on a tiny single-row instance the full ILP
// formulation (3) can be solved to optimality with the built-in branch and
// bound; this example measures the optimality gap of the E-BLOW heuristic
// and shows how quickly the exact approach becomes hopeless as the candidate
// count grows (the point of Table 5 in the paper).
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"eblow"
)

func main() {
	for _, name := range []string{"1T-1", "1T-2", "1T-3"} {
		in, err := eblow.Benchmark(name)
		if err != nil {
			log.Fatal(err)
		}

		// The exact strategy takes its branch-and-bound time limit from
		// Params.Deadline. A search that ends without any feasible plan
		// fails with a NoIncumbentError that still carries its details.
		var exact *eblow.ExactResult
		res, err := eblow.SolveWith(context.Background(), in, eblow.Params{
			Strategies: []string{"exact"},
			Deadline:   20 * time.Second,
		})
		var none *eblow.NoIncumbentError
		switch {
		case errors.As(err, &none):
			exact = none.Exact
		case err != nil:
			log.Fatal(err)
		default:
			exact = res.Exact
		}
		heur, err := eblow.Solve(context.Background(), in)
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("%s: %d candidates, %d binary variables in formulation (3)\n",
			name, in.NumCharacters(), exact.BinaryVariables)
		if exact.Solution != nil {
			status := "optimal"
			if !exact.Optimal {
				status = "feasible (time limit hit)"
			}
			gap := float64(heur.WritingTime-exact.Solution.WritingTime) / float64(exact.Solution.WritingTime) * 100
			fmt.Printf("  ILP   : T=%6d  %-26s nodes=%-6d %s\n",
				exact.Solution.WritingTime, status, exact.Nodes, exact.Elapsed.Round(time.Millisecond))
			fmt.Printf("  E-BLOW: T=%6d  gap to ILP %.1f%%          %s\n",
				heur.WritingTime, gap, heur.Runtime.Round(time.Millisecond))
		} else {
			fmt.Printf("  ILP   : no solution within the time limit (status %s)\n", exact.Status)
			fmt.Printf("  E-BLOW: T=%6d in %s\n", heur.WritingTime, heur.Runtime.Round(time.Millisecond))
		}
		fmt.Println()
	}
}
