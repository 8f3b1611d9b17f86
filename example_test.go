package eblow_test

import (
	"context"
	"fmt"
	"log"

	"eblow"
)

// A single strategy by name: the registry resolves it, the unified Result
// reports the outcome. These examples run as tests, so the README snippets
// they mirror cannot drift from the real API.
func ExampleSolveWith() {
	ctx := context.Background()
	in := eblow.SmallInstance(eblow.OneD, 80, 2, 42)

	res, err := eblow.SolveWith(ctx, in, eblow.Params{
		Strategies: []string{"greedy"},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("strategy:", res.Strategy)
	fmt.Println("feasible:", res.Feasible)
	// Output:
	// strategy: greedy
	// feasible: true
}

// Several strategy names race as a portfolio under one deadline: every
// entrant's outcome lands in Result.Runs and the best feasible plan wins.
func ExampleSolveWith_portfolioRace() {
	ctx := context.Background()
	in := eblow.SmallInstance(eblow.OneD, 80, 2, 42)

	res, err := eblow.SolveWith(ctx, in, eblow.Params{
		Strategies: []string{"eblow", "row25", "greedy"},
		Seed:       1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("winner:", res.Strategy)
	for _, r := range res.Runs {
		fmt.Println("ran:", r.Name, r.Err == nil)
	}
	// Output:
	// winner: eblow
	// ran: eblow true
	// ran: row25 true
	// ran: greedy true
}
