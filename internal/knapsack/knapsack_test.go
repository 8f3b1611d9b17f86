package knapsack

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"eblow/internal/lp"
)

// relax runs Relax on a fresh workspace and returns the value and the
// assignment as one row per item.
func relax(items []Item, caps []float64) (float64, [][]float64, error) {
	var ws Workspace
	a := make([]float64, len(items)*len(caps))
	v, err := ws.Relax(items, caps, a)
	rows := make([][]float64, len(items))
	for i := range rows {
		rows[i] = a[i*len(caps) : (i+1)*len(caps)]
	}
	return v, rows, err
}

// rowSum is item i's aggregate fraction sum_j a_ij.
func rowSum(row []float64) float64 {
	s := 0.0
	for _, v := range row {
		s += v
	}
	return s
}

func TestRelaxedAssignmentEmpty(t *testing.T) {
	v, _, err := relax(nil, nil)
	if err != nil || v != 0 {
		t.Errorf("empty: %v %v", v, err)
	}
	v, a, err := relax([]Item{{Weight: 1, Profit: 1}}, nil)
	if err != nil || v != 0 || len(a[0]) != 0 {
		t.Errorf("no knapsacks: %v %v %v", v, a, err)
	}
}

func TestRelaxedAssignmentErrors(t *testing.T) {
	if _, _, err := relax([]Item{{Weight: -1, Profit: 1}}, []float64{5}); err == nil {
		t.Error("negative weight should error")
	}
	if _, _, err := relax([]Item{{Weight: 1, Profit: 1}}, []float64{-5}); err == nil {
		t.Error("negative capacity should error")
	}
}

func TestRelaxedAssignmentSimple(t *testing.T) {
	items := []Item{
		{Weight: 10, Profit: 60},  // density 6
		{Weight: 20, Profit: 100}, // density 5
		{Weight: 30, Profit: 120}, // density 4
	}
	v, a, err := relax(items, []float64{50})
	if err != nil {
		t.Fatal(err)
	}
	// Classic fractional knapsack answer: 60 + 100 + (20/30)*120 = 240.
	if math.Abs(v-240) > 1e-9 {
		t.Errorf("Value = %v, want 240", v)
	}
	if a[0][0] != 1 || a[1][0] != 1 || math.Abs(a[2][0]-2.0/3.0) > 1e-9 {
		t.Errorf("A = %v", a)
	}
}

func TestRelaxedAssignmentMultipleKnapsacks(t *testing.T) {
	items := []Item{
		{Weight: 10, Profit: 50},
		{Weight: 10, Profit: 40},
		{Weight: 10, Profit: 30},
	}
	v, a, err := relax(items, []float64{15, 15})
	if err != nil {
		t.Fatal(err)
	}
	// Total capacity 30 fits all items: value 120.
	if math.Abs(v-120) > 1e-9 {
		t.Errorf("Value = %v, want 120", v)
	}
	// Per-knapsack loads must respect the capacities.
	for j := 0; j < 2; j++ {
		load := 0.0
		for i := range items {
			load += a[i][j] * items[i].Weight
		}
		if load > 15+1e-9 {
			t.Errorf("knapsack %d overloaded: %v", j, load)
		}
	}
}

func TestZeroWeightAndNonPositiveProfit(t *testing.T) {
	items := []Item{
		{Weight: 0, Profit: 7},
		{Weight: 5, Profit: 0},
		{Weight: 5, Profit: -3},
	}
	v, a, err := relax(items, []float64{4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-7) > 1e-9 {
		t.Errorf("Value = %v, want 7", v)
	}
	if rowSum(a[1]) != 0 || rowSum(a[2]) != 0 {
		t.Errorf("non-positive profit items selected: %v", a)
	}
}

func TestExactBinary(t *testing.T) {
	best, chosen := ExactBinary([]int{3, 4, 5}, []float64{10, 13, 14}, 7)
	if math.Abs(best-23) > 1e-9 {
		t.Errorf("best = %v, want 23", best)
	}
	if !chosen[0] || !chosen[1] || chosen[2] {
		t.Errorf("chosen = %v, want [true true false]", chosen)
	}
	best, chosen = ExactBinary(nil, nil, 10)
	if best != 0 || len(chosen) != 0 {
		t.Error("empty knapsack")
	}
	best, _ = ExactBinary([]int{1}, []float64{5}, 0)
	if best != 0 {
		t.Error("zero capacity")
	}
	best, chosen = ExactBinary([]int{2, 2}, []float64{-1, 3}, 4)
	if best != 3 || chosen[0] {
		t.Error("negative profit item must not be chosen")
	}
}

// Property: the structured relaxation matches the general simplex solution
// of the same LP on small random instances.
func TestRelaxationMatchesSimplex(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(7)
		m := 1 + rng.Intn(3)
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{Weight: float64(1 + rng.Intn(20)), Profit: float64(rng.Intn(50))}
		}
		caps := make([]float64, m)
		for j := range caps {
			caps[j] = float64(5 + rng.Intn(40))
		}
		value, _, err := relax(items, caps)
		if err != nil {
			return false
		}

		// General LP over a_ij.
		p := lp.NewProblem(n * m)
		obj := make([]float64, n*m)
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				obj[i*m+j] = items[i].Profit
				p.SetBounds(i*m+j, 0, 1)
			}
		}
		p.SetObjective(obj, true)
		for j := 0; j < m; j++ {
			terms := make([]lp.Term, 0, n)
			for i := 0; i < n; i++ {
				terms = append(terms, lp.Term{Var: i*m + j, Coeff: items[i].Weight})
			}
			p.AddConstraint(terms, lp.LE, caps[j])
		}
		for i := 0; i < n; i++ {
			terms := make([]lp.Term, 0, m)
			for j := 0; j < m; j++ {
				terms = append(terms, lp.Term{Var: i*m + j, Coeff: 1})
			}
			p.AddConstraint(terms, lp.LE, 1)
		}
		res := lp.Solve(p)
		if res.Status != lp.Optimal {
			return false
		}
		return math.Abs(res.Objective-value) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: the relaxation assignment matrix is feasible (capacities and
// per-item fraction bounds) and its objective is the returned value, and
// the relaxation value upper-bounds the exact integral single-knapsack value
// when there is one knapsack with integer capacity.
func TestRelaxationFeasibilityAndBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		items := make([]Item, n)
		weights := make([]int, n)
		profits := make([]float64, n)
		for i := range items {
			weights[i] = 1 + rng.Intn(15)
			profits[i] = float64(rng.Intn(40))
			items[i] = Item{Weight: float64(weights[i]), Profit: profits[i]}
		}
		capacity := 5 + rng.Intn(60)
		value, a, err := relax(items, []float64{float64(capacity)})
		if err != nil {
			return false
		}
		load, obj := 0.0, 0.0
		for i := range items {
			for _, v := range a[i] {
				if v < -1e-9 {
					return false
				}
			}
			frac := rowSum(a[i])
			if frac > 1+1e-9 {
				return false
			}
			load += frac * items[i].Weight
			obj += frac * items[i].Profit
		}
		if load > float64(capacity)+1e-6 || math.Abs(obj-value) > 1e-6 {
			return false
		}
		exact, _ := ExactBinary(weights, profits, capacity)
		return value >= exact-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// refRelax is the direct form of the relaxation: the aggregate fractional
// knapsack over a stable sort with a per-compare density, then a separate
// first-fit split pass over freshly allocated arrays. Relax must reproduce
// it bit for bit.
func refRelax(items []Item, capacities []float64) (float64, []float64) {
	n, m := len(items), len(capacities)
	a := make([]float64, n*m)
	frac := make([]float64, n)
	total := 0.0
	for _, c := range capacities {
		total += c
	}
	if n == 0 || m == 0 {
		return 0, a
	}
	var order []int
	for i, it := range items {
		if it.Profit > 0 {
			order = append(order, i)
		}
	}
	slices.SortStableFunc(order, func(x, y int) int {
		ix, iy := items[x], items[y]
		dx, dy := density(ix), density(iy)
		switch {
		case dx > dy:
			return -1
		case dx != dy:
			return 1
		case ix.Profit > iy.Profit:
			return -1
		case ix.Profit < iy.Profit:
			return 1
		}
		return 0
	})
	value, remaining := 0.0, total
	for _, i := range order {
		it := items[i]
		if it.Weight == 0 {
			frac[i] = 1
			value += it.Profit
			continue
		}
		if remaining <= 0 {
			break
		}
		take := 1.0
		if it.Weight > remaining {
			take = remaining / it.Weight
		}
		frac[i] = take
		value += take * it.Profit
		remaining -= take * it.Weight
	}
	capLeft := slices.Clone(capacities)
	j := 0
	for _, i := range order {
		if frac[i] <= 0 {
			continue
		}
		w := items[i].Weight
		if w == 0 {
			a[i*m] += frac[i]
			continue
		}
		need := frac[i] * w
		for need > 1e-12 && j < len(capLeft) {
			if capLeft[j] <= 1e-12 {
				j++
				continue
			}
			put := min(need, capLeft[j])
			a[i*m+j] += put / w
			capLeft[j] -= put
			need -= put
		}
	}
	return value, a
}

// tieHeavyItems draws n items from a few weights and profits, so zero
// weights, equal densities (2/1 and 4/2), equal profits and non-positive
// profits all occur many times.
func tieHeavyItems(rng *rand.Rand, n int) []Item {
	weights := []float64{0, 1, 2, 4}
	profits := []float64{-1, 0, 2, 4, 8}
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Weight: weights[rng.Intn(len(weights))], Profit: profits[rng.Intn(len(profits))]}
	}
	return items
}

// TestRelaxMatchesStableReference checks that sorting precomputed keys with
// the item index as the last tie-break, and splitting each item as it is
// taken, gives bit-for-bit the value and assignment of the stable-sort
// reference on tie-heavy inputs. One workspace serves every trial, so stale
// scratch from a larger earlier input would show too.
func TestRelaxMatchesStableReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var ws Workspace
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(30)
		if trial%4 == 0 {
			n = 30 + rng.Intn(600)
		}
		items := tieHeavyItems(rng, n)
		caps := make([]float64, 1+rng.Intn(6))
		for j := range caps {
			caps[j] = float64(rng.Intn(3*n/len(caps) + 1))
			if rng.Intn(3) == 0 {
				caps[j] += 0.5
			}
		}
		a := make([]float64, n*len(caps))
		for k := range a {
			a[k] = -7 // Relax must overwrite every entry
		}
		got, err := ws.Relax(items, caps, a)
		if err != nil {
			t.Fatal(err)
		}
		want, wantA := refRelax(items, caps)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: value %v, reference %v", trial, got, want)
		}
		for k := range a {
			if math.Float64bits(a[k]) != math.Float64bits(wantA[k]) {
				t.Fatalf("trial %d: a[%d] = %v, reference %v", trial, k, a[k], wantA[k])
			}
		}
	}
}

// TestSortRankedMatchesCompareRanked checks Relax's radix order against a
// comparison sort under compareRanked, its definition, on items whose
// densities and profits repeat (2/1 and 4/2 share a density, profits share
// values), zero-weight items (density 1e18), continuous random items,
// densities shared by pairs of items, densities that differ in a single
// low byte, and a few NaN weights, at sizes from 0 to 700 on both sides of radixMin. One
// workspace serves every trial, so its swapped radix buffers are reused
// at every size.
func TestSortRankedMatchesCompareRanked(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var ws Workspace
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(2 * radixMin)
		if trial%3 == 0 {
			n = rng.Intn(700)
		}
		items := tieHeavyItems(rng, n)
		for i := range items {
			switch {
			case trial%2 == 1 && rng.Intn(2) == 0:
				items[i] = Item{Weight: float64(rng.Intn(40)), Profit: 40 * rng.ExpFloat64()}
			case trial%3 == 1:
				// Density a exactly, from a range wide enough that most
				// densities occur once or twice, with distinct profits.
				w := float64(1 + rng.Intn(40))
				items[i] = Item{Weight: w, Profit: float64(1+rng.Intn(n+1)) * w}
			case trial%3 == 2:
				// Densities that differ in one byte only, at every byte
				// position below the exponent.
				bits := math.Float64bits(1.5) ^ uint64(rng.Intn(256))<<(8*rng.Intn(6))
				items[i] = Item{Weight: 1, Profit: math.Float64frombits(bits)}
			case trial%7 == 0 && rng.Intn(50) == 0:
				items[i].Weight = math.NaN()
			}
		}
		order := ws.order[:0]
		for i, it := range items {
			if it.Profit > 0 {
				order = append(order, ranked{density: density(it), profit: it.Profit, item: i})
			}
		}
		ws.order = order
		want := slices.Clone(order)
		slices.SortFunc(want, compareRanked)
		got := ws.sortRanked(order)
		if len(got) != len(want) {
			t.Fatalf("trial %d: sorted %d items, want %d", trial, len(got), len(want))
		}
		for k := range got {
			if got[k].item != want[k].item {
				t.Fatalf("trial %d: position %d holds item %d, compareRanked order has item %d", trial, k, got[k].item, want[k].item)
			}
		}
	}
}

// plan1dItems is a relaxation shaped like one rounding iteration of the
// service's plan1d jobs: 600 characters with effective widths 18–40 and
// skewed profits over the 20 rows of an 800-wide stencil.
func plan1dItems() ([]Item, []float64) {
	rng := rand.New(rand.NewSource(1))
	items := make([]Item, 600)
	for i := range items {
		items[i] = Item{Weight: float64(18 + rng.Intn(23)), Profit: 40 * rng.ExpFloat64()}
	}
	caps := make([]float64, 20)
	for j := range caps {
		caps[j] = float64(786 - rng.Intn(40))
	}
	return items, caps
}

// TestRelaxWarmAllocs checks that a workspace that has seen an input of the
// same size solves the next one without allocating.
func TestRelaxWarmAllocs(t *testing.T) {
	items, caps := plan1dItems()
	a := make([]float64, len(items)*len(caps))
	var ws Workspace
	if _, err := ws.Relax(items, caps, a); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ws.Relax(items, caps, a); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm Relax allocates %v times per call, want 0", allocs)
	}
}

// TestExactBinaryMatchesBruteForce checks the DP's best profit and its
// chosen set against enumeration of every subset on small instances.
func TestExactBinaryMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(11)
		weights := make([]int, n)
		profits := make([]float64, n)
		for i := range weights {
			weights[i] = rng.Intn(9)
			profits[i] = float64(rng.Intn(20) - 4)
		}
		capacity := rng.Intn(25)
		best, chosen := ExactBinary(weights, profits, capacity)
		want := 0.0
		for mask := 0; mask < 1<<n; mask++ {
			w, p := 0, 0.0
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					w += weights[i]
					p += profits[i]
				}
			}
			if w <= capacity && p > want {
				want = p
			}
		}
		w, p := 0, 0.0
		for i, ok := range chosen {
			if ok {
				w += weights[i]
				p += profits[i]
			}
		}
		if capacity <= 0 {
			want = 0
		}
		if best != want || p != best || w > max(capacity, 0) {
			t.Fatalf("trial %d: best %v (chosen weight %d profit %v), brute force %v", trial, best, w, p, want)
		}
	}
}

// BenchmarkRelax is one plan1d-shaped relaxation (600 items, 20
// knapsacks) on a warm workspace: the per-iteration knapsack cost of the
// 1D successive rounding.
func BenchmarkRelax(b *testing.B) {
	items, caps := plan1dItems()
	a := make([]float64, len(items)*len(caps))
	var ws Workspace
	if _, err := ws.Relax(items, caps, a); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ws.Relax(items, caps, a); err != nil {
			b.Fatal(err)
		}
	}
}
