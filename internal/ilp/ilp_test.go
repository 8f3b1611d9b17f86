package ilp

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"eblow/internal/lp"
)

func TestKnapsackILP(t *testing.T) {
	// maximize 10a + 13b + 14c, 3a + 4b + 5c <= 7, binary.
	// Brute force: {a,b}=23 weight 7 is optimal.
	p := lp.NewProblem(3)
	p.SetObjective([]float64{10, 13, 14}, true)
	p.AddDense([]float64{3, 4, 5}, lp.LE, 7)
	prob := NewBinaryProblem(p, []int{0, 1, 2})
	res, err := Solve(context.Background(), prob, Options{Maximize: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Objective-23) > 1e-6 {
		t.Errorf("objective = %v, want 23", res.Objective)
	}
	if math.Round(res.X[0]) != 1 || math.Round(res.X[1]) != 1 || math.Round(res.X[2]) != 0 {
		t.Errorf("X = %v, want [1 1 0]", res.X)
	}
}

func TestMinimizationILP(t *testing.T) {
	// Set-cover style: minimize a + b + c with a + b >= 1, b + c >= 1, a + c >= 1.
	// Optimum 2.
	p := lp.NewProblem(3)
	p.SetObjective([]float64{1, 1, 1}, false)
	p.AddDense([]float64{1, 1, 0}, lp.GE, 1)
	p.AddDense([]float64{0, 1, 1}, lp.GE, 1)
	p.AddDense([]float64{1, 0, 1}, lp.GE, 1)
	prob := NewBinaryProblem(p, []int{0, 1, 2})
	res, err := Solve(context.Background(), prob, Options{Maximize: false})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Objective-2) > 1e-6 {
		t.Errorf("objective = %v, want 2", res.Objective)
	}
}

func TestInfeasibleILP(t *testing.T) {
	p := lp.NewProblem(2)
	p.SetObjective([]float64{1, 1}, true)
	p.AddDense([]float64{1, 1}, lp.GE, 3) // impossible for two binaries
	prob := NewBinaryProblem(p, []int{0, 1})
	res, err := Solve(context.Background(), prob, Options{Maximize: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", res.Status)
	}
}

func TestUnboundedILP(t *testing.T) {
	p := lp.NewProblem(1)
	p.SetObjective([]float64{1}, true)
	prob := &Problem{LP: p, Integer: []bool{false}}
	res, err := Solve(context.Background(), prob, Options{Maximize: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", res.Status)
	}
}

func TestMixedIntegerProblem(t *testing.T) {
	// maximize x + 10y, x continuous in [0, 2.5], y binary, x + 4y <= 5.
	// y=1 -> x <= 1 -> obj 11; y=0 -> x=2.5 -> 2.5. Optimum 11.
	p := lp.NewProblem(2)
	p.SetObjective([]float64{1, 10}, true)
	p.SetBounds(0, 0, 2.5)
	p.AddDense([]float64{1, 4}, lp.LE, 5)
	prob := NewBinaryProblem(p, []int{1})
	res, err := Solve(context.Background(), prob, Options{Maximize: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || math.Abs(res.Objective-11) > 1e-6 {
		t.Errorf("got %v obj %v, want optimal 11", res.Status, res.Objective)
	}
}

func TestTimeLimitReturnsQuickly(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 24
	p := lp.NewProblem(n)
	obj := make([]float64, n)
	w := make([]float64, n)
	var total float64
	for i := range obj {
		obj[i] = 1 + rng.Float64()*100
		w[i] = 1 + rng.Float64()*100
		total += w[i]
	}
	p.SetObjective(obj, true)
	p.AddDense(w, lp.LE, total/2)
	// A second correlated constraint to make the search tree non-trivial.
	w2 := make([]float64, n)
	for i := range w2 {
		w2[i] = w[i] + rng.Float64()*10
	}
	p.AddDense(w2, lp.LE, total/2)
	vars := make([]int, n)
	for i := range vars {
		vars[i] = i
	}
	prob := NewBinaryProblem(p, vars)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := Solve(ctx, prob, Options{Maximize: true})
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 3*time.Second {
		t.Errorf("context deadline not respected: took %v", time.Since(start))
	}
	if res.Status != Optimal && res.Status != Feasible && res.Status != Limit {
		t.Errorf("unexpected status %v", res.Status)
	}
}

// MaxNodes counts dealt nodes: a budget of one deals the root alone, whose
// fractional relaxation leaves the search open without an incumbent.
func TestNodeLimit(t *testing.T) {
	p := lp.NewProblem(3)
	p.SetObjective([]float64{2, 3, 4}, true)
	p.AddDense([]float64{1, 1, 1}, lp.LE, 1.5)
	prob := NewBinaryProblem(p, []int{0, 1, 2})
	res, err := Solve(context.Background(), prob, Options{Maximize: true, MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes != 1 || res.Status != Limit || res.X != nil {
		t.Errorf("MaxNodes=1: dealt %d nodes, status %v, solution %v; want 1 node, limit, none", res.Nodes, res.Status, res.X)
	}
	full, err := Solve(context.Background(), prob, Options{Maximize: true})
	if err != nil {
		t.Fatal(err)
	}
	if full.Status != Optimal || full.Nodes <= 1 {
		t.Errorf("unbudgeted run: status %v after %d nodes, want optimal after more than one", full.Status, full.Nodes)
	}
}

func TestBadProblem(t *testing.T) {
	if _, err := Solve(context.Background(), &Problem{LP: lp.NewProblem(2), Integer: []bool{true}}, Options{}); err == nil {
		t.Error("expected error for mismatched integrality flags")
	}
	if _, err := Solve(context.Background(), nil, Options{}); err == nil {
		t.Error("expected error for nil problem")
	}
}

func TestStatusString(t *testing.T) {
	for _, s := range []Status{Optimal, Feasible, Infeasible, Unbounded, Limit} {
		if s.String() == "" {
			t.Error("empty status string")
		}
	}
	if Status(42).String() == "" {
		t.Error("fallback status string empty")
	}
}

// bruteForceBinary enumerates all 0/1 assignments and returns the best
// objective of a feasible one (ok=false when none is feasible).
func bruteForceBinary(obj []float64, rows [][]float64, rhs []float64, maximize bool) (float64, bool) {
	n := len(obj)
	best := 0.0
	found := false
	for mask := 0; mask < 1<<n; mask++ {
		feasible := true
		for r := range rows {
			dot := 0.0
			for j := 0; j < n; j++ {
				if mask&(1<<j) != 0 {
					dot += rows[r][j]
				}
			}
			if dot > rhs[r]+1e-9 {
				feasible = false
				break
			}
		}
		if !feasible {
			continue
		}
		val := 0.0
		for j := 0; j < n; j++ {
			if mask&(1<<j) != 0 {
				val += obj[j]
			}
		}
		if !found || (maximize && val > best) || (!maximize && val < best) {
			best = val
			found = true
		}
	}
	return best, found
}

// Property: branch and bound matches brute force on random small binary
// programs with <= constraints (always feasible because 0 is feasible).
func TestRandomBinaryProgramsMatchBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(7)
		m := 1 + rng.Intn(4)
		obj := make([]float64, n)
		for j := range obj {
			obj[j] = float64(rng.Intn(40) + 1)
		}
		rows := make([][]float64, m)
		rhs := make([]float64, m)
		p := lp.NewProblem(n)
		p.SetObjective(obj, true)
		for i := 0; i < m; i++ {
			rows[i] = make([]float64, n)
			var sum float64
			for j := 0; j < n; j++ {
				rows[i][j] = float64(rng.Intn(10))
				sum += rows[i][j]
			}
			rhs[i] = math.Floor(sum * (0.2 + 0.6*rng.Float64()))
			p.AddDense(rows[i], lp.LE, rhs[i])
		}
		vars := make([]int, n)
		for j := range vars {
			vars[j] = j
		}
		prob := NewBinaryProblem(p, vars)
		res, err := Solve(context.Background(), prob, Options{Maximize: true})
		if err != nil || res.Status != Optimal {
			return false
		}
		want, ok := bruteForceBinary(obj, rows, rhs, true)
		if !ok {
			return false
		}
		return math.Abs(res.Objective-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
