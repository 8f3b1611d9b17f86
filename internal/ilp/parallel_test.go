package ilp

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"eblow/internal/lp"
)

// randomBinaryProgram builds a seeded random binary program with <=
// constraints (0 is always feasible) plus one correlated second constraint
// so the branch-and-bound tree is non-trivial.
func randomBinaryProgram(seed int64, n, m int) *Problem {
	rng := rand.New(rand.NewSource(seed))
	p := lp.NewProblem(n)
	obj := make([]float64, n)
	for j := range obj {
		obj[j] = 1 + rng.Float64()*100
	}
	p.SetObjective(obj, true)
	for i := 0; i < m; i++ {
		row := make([]float64, n)
		var sum float64
		for j := range row {
			row[j] = rng.Float64() * 10
			sum += row[j]
		}
		p.AddDense(row, lp.LE, sum*(0.2+0.5*rng.Float64()))
	}
	vars := make([]int, n)
	for j := range vars {
		vars[j] = j
	}
	return NewBinaryProblem(p, vars)
}

// identicalResults fails the test unless the two results agree bit-for-bit
// on status, objective, bound, dealt nodes and solution vector.
func identicalResults(t *testing.T, a, b *Result, label string) {
	t.Helper()
	if a.Status != b.Status {
		t.Errorf("%s: status %v vs %v", label, a.Status, b.Status)
	}
	if a.Objective != b.Objective {
		t.Errorf("%s: objective %v vs %v", label, a.Objective, b.Objective)
	}
	if a.BestBound != b.BestBound {
		t.Errorf("%s: best bound %v vs %v", label, a.BestBound, b.BestBound)
	}
	if a.Nodes != b.Nodes {
		t.Errorf("%s: dealt %d vs %d nodes", label, a.Nodes, b.Nodes)
	}
	if (a.X == nil) != (b.X == nil) {
		t.Fatalf("%s: one run has a solution, the other does not", label)
	}
	for j := range a.X {
		if a.X[j] != b.X[j] {
			t.Errorf("%s: X[%d] = %v vs %v", label, j, a.X[j], b.X[j])
		}
	}
}

// The determinism contract of the engine: Workers=1 and Workers=8 return
// bit-identical status, objective and solution on a spread of random binary
// programs (run under -race in CI).
func TestWorkersBitIdentical(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		n := 6 + int(seed)%8
		prob := randomBinaryProgram(seed, n, 3)
		seq, err := Solve(context.Background(), prob, Options{Maximize: true, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		par, err := Solve(context.Background(), prob, Options{Maximize: true, Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		identicalResults(t, seq, par, fmt.Sprintf("seed %d", seed))
		if seq.Status != Optimal {
			t.Errorf("seed %d: expected optimal, got %v", seed, seq.Status)
		}
	}
}

// A minimization problem must obey the same contract (the sign-adjusted
// bounds and the live incumbent publishing both flip direction).
func TestWorkersBitIdenticalMinimize(t *testing.T) {
	// Set-cover over 9 elements with 12 sets, minimized.
	rng := rand.New(rand.NewSource(5))
	nSets, nElems := 12, 9
	p := lp.NewProblem(nSets)
	obj := make([]float64, nSets)
	for j := range obj {
		obj[j] = 1 + rng.Float64()*4
	}
	p.SetObjective(obj, false)
	for e := 0; e < nElems; e++ {
		row := make([]float64, nSets)
		covered := 0
		for j := 0; j < nSets; j++ {
			if rng.Intn(3) == 0 {
				row[j] = 1
				covered++
			}
		}
		if covered == 0 {
			row[e%nSets] = 1
		}
		p.AddDense(row, lp.GE, 1)
	}
	vars := make([]int, nSets)
	for j := range vars {
		vars[j] = j
	}
	prob := NewBinaryProblem(p, vars)
	seq, err := Solve(context.Background(), prob, Options{Maximize: false, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Solve(context.Background(), prob, Options{Maximize: false, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	identicalResults(t, seq, par, "set-cover")
}

// Result.Nodes must be reproducible run-to-run at Workers=1 (no context
// deadline, so wall clock cannot interfere).
func TestNodesDeterministicAtOneWorker(t *testing.T) {
	prob := randomBinaryProgram(42, 12, 3)
	first, err := Solve(context.Background(), prob, Options{Maximize: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		again, err := Solve(context.Background(), prob, Options{Maximize: true, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if again.Nodes != first.Nodes {
			t.Fatalf("run %d explored %d nodes, first run %d", run, again.Nodes, first.Nodes)
		}
		identicalResults(t, first, again, "repeat")
	}
	if first.Nodes == 0 {
		t.Error("no nodes counted on a solved program")
	}
}

// Cancelling a parallel solve must stop every worker promptly: the solve
// returns quickly and no worker goroutines outlive it.
func TestParallelCancellationExitsPromptly(t *testing.T) {
	before := runtime.NumGoroutine()
	prob := randomBinaryProgram(7, 26, 4)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := Solve(ctx, prob, Options{Maximize: true, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cancellation ignored: solve ran %v", d)
	}
	if res.Status == Optimal && res.X == nil {
		t.Error("optimal status without a solution")
	}
	// Workers are joined before Solve returns; give the runtime a moment to
	// reap the exited goroutines, then require the count to come back down.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+1 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before+1 {
		t.Errorf("worker goroutines leaked: %d before, %d after", before, now)
	}
}

// A context deadline must bound a parallel solve the same way it bounds the
// sequential one, and the incumbent (when one exists) must be integral.
func TestParallelTimeLimit(t *testing.T) {
	prob := randomBinaryProgram(11, 26, 4)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := Solve(ctx, prob, Options{Maximize: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("context deadline ignored: solve ran %v", d)
	}
	if res.X != nil {
		for j, x := range res.X {
			if f := x - math.Floor(x); math.Min(f, 1-f) > 1e-6 {
				t.Errorf("incumbent X[%d] = %v is not integral", j, x)
			}
		}
	}
}

// A node budget is deterministic work, so a search it cuts returns the same
// status, objective, bound and solution at every worker count. The budgets
// straddle the 64-node round (below it, at it, one past it, several rounds
// deep) and include three quarters of the unbudgeted search, which cuts
// some of these trees after they found an incumbent.
func TestNodeBudgetBitIdenticalAcrossWorkers(t *testing.T) {
	feasible := 0
	for _, n := range []int{12, 18} {
		for seed := int64(1); seed <= 6; seed++ {
			prob := randomBinaryProgram(seed, n, 3)
			full, err := Solve(context.Background(), prob, Options{Maximize: true, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, budget := range []int{1, 63, 64, 65, 200, full.Nodes * 3 / 4} {
				ref, err := Solve(context.Background(), prob, Options{Maximize: true, Workers: 1, MaxNodes: budget})
				if err != nil {
					t.Fatal(err)
				}
				if ref.Nodes > budget {
					t.Errorf("n %d seed %d budget %d: dealt %d nodes", n, seed, budget, ref.Nodes)
				}
				if ref.Status == Feasible {
					feasible++
				}
				for _, workers := range []int{2, 8} {
					got, err := Solve(context.Background(), prob, Options{Maximize: true, Workers: workers, MaxNodes: budget})
					if err != nil {
						t.Fatal(err)
					}
					identicalResults(t, ref, got, fmt.Sprintf("n %d seed %d budget %d workers %d", n, seed, budget, workers))
				}
			}
		}
	}
	if feasible == 0 {
		t.Error("no budget cut a search after its first incumbent")
	}
}

// A budget that runs out when only nodes the incumbent prunes are left has
// finished the search: the result is the unbudgeted one, Optimal with the
// bound closed, not Feasible.
func TestNodeBudgetSpentOnFinishedSearchIsOptimal(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		prob := randomBinaryProgram(seed, 18, 3)
		full, err := Solve(context.Background(), prob, Options{Maximize: true, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if full.Status != Optimal {
			t.Fatalf("seed %d: unbudgeted run is %v", seed, full.Status)
		}
		cut, err := Solve(context.Background(), prob, Options{Maximize: true, Workers: 1, MaxNodes: full.Nodes})
		if err != nil {
			t.Fatal(err)
		}
		identicalResults(t, full, cut, fmt.Sprintf("seed %d budget %d", seed, full.Nodes))
		if cut.BestBound != cut.Objective {
			t.Errorf("seed %d: best bound %v above objective %v", seed, cut.BestBound, cut.Objective)
		}
	}
}

// The engine must keep its hands off the caller's LP: bounds are applied to
// per-worker clones, never to the template problem.
func TestSolveDoesNotMutateTemplate(t *testing.T) {
	prob := randomBinaryProgram(3, 8, 2)
	n := prob.LP.NumVars()
	lo := make([]float64, n)
	hi := make([]float64, n)
	for j := 0; j < n; j++ {
		lo[j], hi[j] = prob.LP.LowerBound(j), prob.LP.UpperBound(j)
	}
	if _, err := Solve(context.Background(), prob, Options{Maximize: true, Workers: 4}); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < n; j++ {
		if prob.LP.LowerBound(j) != lo[j] || prob.LP.UpperBound(j) != hi[j] {
			t.Fatalf("template bounds of variable %d changed: [%v,%v] -> [%v,%v]",
				j, lo[j], hi[j], prob.LP.LowerBound(j), prob.LP.UpperBound(j))
		}
	}
}
