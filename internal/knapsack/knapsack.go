// Package knapsack provides the structured linear-programming relaxation of
// the simplified 1DOSP formulation (formulation (4)/(5) in the E-BLOW
// paper). The relaxation is a multiple-knapsack problem with assignment
// restrictions in which an item has the same weight in every knapsack; its
// LP optimum therefore equals the optimum of a single fractional knapsack
// over the aggregate capacity and can be computed greedily in O(n log n)
// instead of running a general simplex over the n*m assignment variables.
// This is what makes the successive-rounding loop of E-BLOW practical for
// MCC-sized instances (4000 candidates) without a commercial LP solver.
// Workspace.Relax keeps its scratch between calls, so the rounding loop
// solves one relaxation per iteration without allocating.
//
// The package also contains an exact 0/1 knapsack dynamic program, which
// the 1D planner runs on every solve to decide the characters left over
// after fast convergence.
package knapsack

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Item is a knapsack item: Weight is the effective width w_i - s_i of a
// character under the symmetric-blank assumption and Profit its current
// profit value (Eqn. 6 of the paper).
type Item struct {
	Weight float64
	Profit float64
}

// ErrBadInput reports invalid items or capacities.
var ErrBadInput = errors.New("knapsack: invalid input")

// Workspace is the reusable scratch of Relax. The zero value is ready to
// use; once it has grown to an input's size, Relax allocates nothing. A
// Workspace must not be used by two goroutines at once.
type Workspace struct {
	order   []ranked
	spare   []ranked // sortRanked's second radix buffer
	capLeft []float64
}

// ranked is one positive-profit item with its density computed once.
type ranked struct {
	density, profit float64
	item            int
}

// Relax solves the LP relaxation of
//
//	max  sum_ij profit_i * a_ij
//	s.t. sum_i weight_i * a_ij <= capacity_j   for every knapsack j
//	     sum_j a_ij <= 1                       for every item i
//	     a_ij >= 0
//
// and returns its optimal value. It overwrites a[:n*m] (n items, m
// knapsacks) with the assignment, row-major: a[i*m+j] is the fractional
// amount of item i assigned to knapsack j. a must hold at least n*m values.
//
// Items with non-positive profit are never selected (selecting them cannot
// improve the objective); items with zero weight and positive profit are
// always fully selected.
func (w *Workspace) Relax(items []Item, capacities []float64, a []float64) (float64, error) {
	n, m := len(items), len(capacities)
	for i, it := range items {
		if it.Weight < 0 {
			return 0, fmt.Errorf("%w: item %d has negative weight", ErrBadInput, i)
		}
	}
	total := 0.0
	for j, c := range capacities {
		if c < 0 {
			return 0, fmt.Errorf("%w: knapsack %d has negative capacity", ErrBadInput, j)
		}
		total += c
	}
	a = a[:n*m]
	clear(a)
	if n == 0 || m == 0 {
		return 0, nil
	}

	// Aggregate fractional knapsack: zero-weight items first (infinite
	// density), then by density, then by profit, both descending. The item
	// index breaks the remaining ties, which makes the order strict and
	// equal to that of a stable sort without the index.
	order := slices.Grow(w.order[:0], n)
	for i, it := range items {
		if it.Profit > 0 {
			order = append(order, ranked{density: density(it), profit: it.Profit, item: i})
		}
	}
	w.order = order
	order = w.sortRanked(order)

	// Take items greedily and distribute each one's fraction over the
	// knapsacks with a first-fit split. This yields a feasible assignment
	// whose row sums equal the aggregate fractions; at most one item per
	// knapsack boundary is split, so the matrix is (vertex-like and) nearly
	// integral.
	capLeft := append(w.capLeft[:0], capacities...)
	w.capLeft = capLeft
	value, remaining := 0.0, total
	j := 0
	for _, r := range order {
		i, wt := r.item, items[r.item].Weight
		if wt == 0 {
			// Zero-weight items fit anywhere; put them in the first knapsack.
			value += r.profit
			a[i*m] += 1
			continue
		}
		if remaining <= 0 {
			break
		}
		take := 1.0
		if wt > remaining {
			take = remaining / wt
		}
		value += take * r.profit
		remaining -= take * wt
		if take <= 0 {
			continue
		}
		need := take * wt
		for need > 1e-12 && j < len(capLeft) {
			if capLeft[j] <= 1e-12 {
				j++
				continue
			}
			put := need
			if put > capLeft[j] {
				put = capLeft[j]
			}
			a[i*m+j] += put / wt
			capLeft[j] -= put
			need -= put
		}
	}
	return value, nil
}

// radixMin is the smallest input sortRanked radix-sorts; below it, the
// radix passes' fixed cost exceeds a comparison sort's (on plan1d-shaped
// items the two cost the same between 64 and 128 items; at 16 the radix
// sort takes five times as long, at 600 half as long).
const radixMin = 96

// sortRanked sorts order, which is w.order, by compareRanked and returns the
// sorted slice, which may be held in w.spare instead (the two buffers then
// swap). compareRanked is a strict order, so every exact sort gives the
// same permutation. Densities are positive or zero here (positive profit
// over a non-negative weight), so their bits ascend with their values: an
// LSD radix sort on the complemented bits, stable over the ascending item
// order that order is built in, sorts by density descending and item
// ascending, and sorting each run of equal densities by compareRanked then
// puts the larger profits first. A NaN density has no place in that
// order, so such an input, like a small one, takes a comparison sort.
func (w *Workspace) sortRanked(order []ranked) []ranked {
	n := len(order)
	if n < radixMin {
		slices.SortFunc(order, compareRanked)
		return order
	}
	var counts [8][256]int32
	for _, r := range order {
		if r.density != r.density {
			slices.SortFunc(order, compareRanked)
			return order
		}
		k := ^math.Float64bits(r.density)
		counts[0][byte(k)]++
		counts[1][byte(k>>8)]++
		counts[2][byte(k>>16)]++
		counts[3][byte(k>>24)]++
		counts[4][byte(k>>32)]++
		counts[5][byte(k>>40)]++
		counts[6][byte(k>>48)]++
		counts[7][byte(k>>56)]++
	}
	src, dst := order, slices.Grow(w.spare[:0], n)[:n]
	for d := range counts {
		c := &counts[d]
		shift := 8 * d
		if c[byte(^math.Float64bits(src[0].density)>>shift)] == int32(n) {
			continue // every key has this digit
		}
		var sum int32
		for b, k := range c {
			c[b] = sum
			sum += k
		}
		for _, r := range src {
			b := byte(^math.Float64bits(r.density) >> shift)
			dst[c[b]] = r
			c[b]++
		}
		src, dst = dst, src
	}
	w.order, w.spare = src, dst
	for i := 0; i < n; {
		j := i + 1
		for j < n && src[j].density == src[i].density {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(src[i:j], compareRanked)
		}
		i = j
	}
	return src
}

// compareRanked is Relax's item order: density, then profit, descending,
// then item index ascending.
func compareRanked(x, y ranked) int {
	switch {
	case x.density > y.density:
		return -1
	case x.density != y.density:
		return 1
	case x.profit > y.profit:
		return -1
	case x.profit < y.profit:
		return 1
	}
	return x.item - y.item
}

func density(it Item) float64 {
	if it.Weight == 0 {
		return 1e18
	}
	return it.Profit / it.Weight
}

// ExactBinary solves the exact 0/1 knapsack with integer weights by dynamic
// programming and returns the best profit and the chosen items. The 1D
// planner's convergence tail runs it on every solve over the characters
// still off the stencil; the tests use it as the reference for rounding
// bounds.
func ExactBinary(weights []int, profits []float64, capacity int) (float64, []bool) {
	n := len(weights)
	chosen := make([]bool, n)
	if capacity <= 0 || n == 0 {
		return 0, chosen
	}
	if len(profits) != n {
		panic("knapsack: weights and profits length mismatch")
	}
	// dp[c] = best profit with capacity c; take[i*stride+c] records item
	// i's take decision at capacity c.
	stride := capacity + 1
	dp := make([]float64, stride)
	take := make([]bool, n*stride)
	for i := 0; i < n; i++ {
		w := weights[i]
		if w < 0 {
			panic("knapsack: negative weight")
		}
		p := profits[i]
		if p <= 0 {
			continue
		}
		row := take[i*stride : (i+1)*stride]
		for c := capacity; c >= w; c-- {
			if cand := dp[c-w] + p; cand > dp[c] {
				dp[c] = cand
				row[c] = true
			}
		}
	}
	best := dp[capacity]
	c := capacity
	for i := n - 1; i >= 0; i-- {
		if take[i*stride+c] {
			chosen[i] = true
			c -= weights[i]
		}
	}
	return best, chosen
}
