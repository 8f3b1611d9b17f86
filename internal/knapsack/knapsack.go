// Package knapsack provides the structured linear-programming relaxation of
// the simplified 1DOSP formulation (formulation (4)/(5) in the E-BLOW
// paper). The relaxation is a multiple-knapsack problem with assignment
// restrictions in which an item has the same weight in every knapsack; its
// LP optimum therefore equals the optimum of a single fractional knapsack
// over the aggregate capacity and can be computed greedily in O(n log n)
// instead of running a general simplex over the n*m assignment variables.
// This is what makes the successive-rounding loop of E-BLOW practical for
// MCC-sized instances (4000 candidates) without a commercial LP solver.
//
// The package also contains an exact 0/1 knapsack dynamic program used by
// tests to cross-check bounds.
package knapsack

import (
	"errors"
	"fmt"
	"slices"
)

// Item is a knapsack item: Weight is the effective width w_i - s_i of a
// character under the symmetric-blank assumption and Profit its current
// profit value (Eqn. 6 of the paper).
type Item struct {
	Weight float64
	Profit float64
}

// Relaxation is an optimal solution of the LP relaxation.
type Relaxation struct {
	// Value is the optimal objective of the relaxation.
	Value float64
	// A[i][j] is the fractional amount of item i assigned to knapsack j.
	// For every item, sum_j A[i][j] <= 1.
	A [][]float64
	// Fraction[i] = sum_j A[i][j], the aggregate fractional selection y_i.
	Fraction []float64
}

// ErrBadInput reports invalid items or capacities.
var ErrBadInput = errors.New("knapsack: invalid input")

// RelaxedAssignment solves the LP relaxation of
//
//	max  sum_ij profit_i * a_ij
//	s.t. sum_i weight_i * a_ij <= capacity_j   for every knapsack j
//	     sum_j a_ij <= 1                       for every item i
//	     a_ij >= 0
//
// Items with non-positive profit are never selected (selecting them cannot
// improve the objective); items with zero weight and positive profit are
// always fully selected.
func RelaxedAssignment(items []Item, capacities []float64) (*Relaxation, error) {
	n, m := len(items), len(capacities)
	for i, it := range items {
		if it.Weight < 0 {
			return nil, fmt.Errorf("%w: item %d has negative weight", ErrBadInput, i)
		}
	}
	total := 0.0
	for j, c := range capacities {
		if c < 0 {
			return nil, fmt.Errorf("%w: knapsack %d has negative capacity", ErrBadInput, j)
		}
		total += c
	}

	rel := &Relaxation{
		A:        make([][]float64, n),
		Fraction: make([]float64, n),
	}
	for i := range rel.A {
		rel.A[i] = make([]float64, m)
	}
	if n == 0 || m == 0 {
		return rel, nil
	}

	// Aggregate fractional knapsack: sort by profit density.
	order := make([]int, 0, n)
	for i, it := range items {
		if it.Profit > 0 {
			order = append(order, i)
		}
	}
	slices.SortStableFunc(order, func(a, b int) int {
		ia, ib := items[a], items[b]
		// Zero-weight items first (infinite density), then by density,
		// then by profit, both descending.
		da, db := density(ia), density(ib)
		switch {
		case da > db:
			return -1
		case da != db:
			return 1
		case ia.Profit > ib.Profit:
			return -1
		case ia.Profit < ib.Profit:
			return 1
		}
		return 0
	})

	remaining := total
	for _, i := range order {
		it := items[i]
		if it.Weight == 0 {
			rel.Fraction[i] = 1
			rel.Value += it.Profit
			continue
		}
		if remaining <= 0 {
			break
		}
		take := 1.0
		if it.Weight > remaining {
			take = remaining / it.Weight
		}
		rel.Fraction[i] = take
		rel.Value += take * it.Profit
		remaining -= take * it.Weight
	}

	// Distribute the aggregate fractions over the knapsacks with a first-fit
	// split. This yields a feasible assignment matrix whose row sums equal
	// the aggregate fractions; at most one item per knapsack boundary is
	// split, so the matrix is (vertex-like and) nearly integral.
	capLeft := append([]float64(nil), capacities...)
	j := 0
	for _, i := range order {
		frac := rel.Fraction[i]
		if frac <= 0 {
			continue
		}
		w := items[i].Weight
		if w == 0 {
			// Zero-weight items fit anywhere; put them in the first knapsack.
			rel.A[i][0] += frac
			continue
		}
		need := frac * w
		for need > 1e-12 && j < len(capLeft) {
			if capLeft[j] <= 1e-12 {
				j++
				continue
			}
			put := need
			if put > capLeft[j] {
				put = capLeft[j]
			}
			rel.A[i][j] += put / w
			capLeft[j] -= put
			need -= put
		}
	}
	return rel, nil
}

func density(it Item) float64 {
	if it.Weight == 0 {
		return 1e18
	}
	return it.Profit / it.Weight
}

// ExactBinary solves the exact 0/1 knapsack with integer weights by dynamic
// programming and returns the best profit and the chosen items. It is used
// by tests as a reference for rounding bounds and by the baseline planner
// for single-row character selection.
func ExactBinary(weights []int, profits []float64, capacity int) (float64, []bool) {
	n := len(weights)
	chosen := make([]bool, n)
	if capacity <= 0 || n == 0 {
		return 0, chosen
	}
	if len(profits) != n {
		panic("knapsack: weights and profits length mismatch")
	}
	// dp[c] = best profit with capacity c; keep per-item take decisions.
	dp := make([]float64, capacity+1)
	take := make([][]bool, n)
	for i := 0; i < n; i++ {
		take[i] = make([]bool, capacity+1)
		w := weights[i]
		if w < 0 {
			panic("knapsack: negative weight")
		}
		p := profits[i]
		if p <= 0 {
			continue
		}
		for c := capacity; c >= w; c-- {
			if cand := dp[c-w] + p; cand > dp[c] {
				dp[c] = cand
				take[i][c] = true
			}
		}
	}
	best := dp[capacity]
	c := capacity
	for i := n - 1; i >= 0; i-- {
		if take[i][c] {
			chosen[i] = true
			c -= weights[i]
		}
	}
	return best, chosen
}
