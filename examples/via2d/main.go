// 2D stencil planning: plan a stencil holding complex via/wire characters
// whose blank margins differ in both directions (the 2DOSP problem), using
// E-BLOW's profit pre-filter and blank-sharing shelf packing, and print the
// resulting placement.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"eblow"
)

func main() {
	// A via-layer style instance: 300 candidate characters with non-uniform
	// blanks, two wafer regions.
	in := eblow.SmallInstance(eblow.TwoD, 300, 2, 7)
	in.Name = "via-layer-demo"

	// The deadline bounds the whole solve.
	res, err := eblow.SolveWith(context.Background(), in, eblow.Params{Seed: 7, Deadline: 5 * time.Second})
	if err != nil {
		log.Fatal(err)
	}
	sol, stats := res.Solution, res.Stats
	if err := sol.Validate(in); err != nil {
		log.Fatalf("planner produced an invalid stencil: %v", err)
	}

	fmt.Printf("candidates            : %d\n", stats.Candidates)
	fmt.Printf("after profit pre-filter: %d\n", stats.AfterFilter)
	fmt.Printf("characters on stencil  : %d\n", sol.NumSelected())
	fmt.Printf("writing time           : %d\n", sol.WritingTime)
	fmt.Printf("planner runtime        : %s\n\n", sol.Runtime)

	greedy, err := eblow.SolveWith(context.Background(), in, eblow.Params{Strategies: []string{"greedy"}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("greedy baseline        : writing time %d with %d characters\n\n", greedy.Objective, greedy.Solution.NumSelected())

	fmt.Println("first placements (character, x, y, size):")
	for i, p := range sol.Placements {
		if i >= 8 {
			break
		}
		c := in.Characters[p.Char]
		fmt.Printf("  char %4d at (%4d,%4d)  %dx%d, blanks l%d r%d t%d b%d\n",
			p.Char, p.X, p.Y, c.Width, c.Height, c.BlankLeft, c.BlankRight, c.BlankTop, c.BlankBottom)
	}
}
