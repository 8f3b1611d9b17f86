package lp

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestSimpleMaximization(t *testing.T) {
	// maximize 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0.
	// Classic optimum: x=2, y=6, obj=36.
	p := NewProblem(2)
	p.SetObjective([]float64{3, 5}, true)
	p.AddDense([]float64{1, 0}, LE, 4)
	p.AddDense([]float64{0, 2}, LE, 12)
	p.AddDense([]float64{3, 2}, LE, 18)
	res := Solve(p)
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Objective-36) > 1e-6 {
		t.Errorf("objective = %v, want 36", res.Objective)
	}
	if math.Abs(res.X[0]-2) > 1e-6 || math.Abs(res.X[1]-6) > 1e-6 {
		t.Errorf("X = %v, want [2 6]", res.X)
	}
}

func TestSimpleMinimization(t *testing.T) {
	// minimize 2x + 3y s.t. x + y >= 10, x >= 2, y >= 3.
	// Optimum: push y to its lower bound 3 => x = 7, obj = 23.
	p := NewProblem(2)
	p.SetObjective([]float64{2, 3}, false)
	p.AddDense([]float64{1, 1}, GE, 10)
	p.SetBounds(0, 2, math.Inf(1))
	p.SetBounds(1, 3, math.Inf(1))
	res := Solve(p)
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Objective-23) > 1e-6 {
		t.Errorf("objective = %v, want 23", res.Objective)
	}
}

func TestEqualityConstraint(t *testing.T) {
	// maximize x + 2y s.t. x + y = 5, x - y <= 1, x, y >= 0.
	// Optimum: y as large as possible: x=0, y=5, obj=10.
	p := NewProblem(2)
	p.SetObjective([]float64{1, 2}, true)
	p.AddDense([]float64{1, 1}, EQ, 5)
	p.AddDense([]float64{1, -1}, LE, 1)
	res := Solve(p)
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Objective-10) > 1e-6 {
		t.Errorf("objective = %v, want 10", res.Objective)
	}
	if math.Abs(res.X[0]+res.X[1]-5) > 1e-6 {
		t.Errorf("equality violated: %v", res.X)
	}
}

func TestUpperBounds(t *testing.T) {
	// maximize x + y with x <= 0.4, y <= 0.7 via bounds and x + y <= 2.
	p := NewProblem(2)
	p.SetObjective([]float64{1, 1}, true)
	p.SetBounds(0, 0, 0.4)
	p.SetBounds(1, 0, 0.7)
	p.AddDense([]float64{1, 1}, LE, 2)
	res := Solve(p)
	if math.Abs(res.Objective-1.1) > 1e-6 {
		t.Errorf("objective = %v, want 1.1", res.Objective)
	}
}

func TestNonzeroLowerBounds(t *testing.T) {
	// minimize x + y, x >= 1.5, y >= 2.5, x + y >= 5  => obj 5 with x+y=5.
	p := NewProblem(2)
	p.SetObjective([]float64{1, 1}, false)
	p.SetBounds(0, 1.5, math.Inf(1))
	p.SetBounds(1, 2.5, math.Inf(1))
	p.AddDense([]float64{1, 1}, GE, 5)
	res := Solve(p)
	if res.Status != Optimal || math.Abs(res.Objective-5) > 1e-6 {
		t.Errorf("got %v obj %v, want optimal 5", res.Status, res.Objective)
	}
	if res.X[0] < 1.5-1e-9 || res.X[1] < 2.5-1e-9 {
		t.Errorf("lower bounds violated: %v", res.X)
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem(1)
	p.SetObjective([]float64{1}, true)
	p.AddDense([]float64{1}, GE, 10)
	p.AddDense([]float64{1}, LE, 5)
	res := Solve(p)
	if res.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", res.Status)
	}
}

func TestInfeasibleBounds(t *testing.T) {
	p := NewProblem(1)
	p.SetBounds(0, 5, 3)
	res := Solve(p)
	if res.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", res.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem(2)
	p.SetObjective([]float64{1, 1}, true)
	p.AddDense([]float64{1, -1}, LE, 1)
	res := Solve(p)
	if res.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", res.Status)
	}
}

func TestNegativeRHS(t *testing.T) {
	// maximize -x s.t. -x <= -3  (i.e. x >= 3): optimum x=3, obj=-3.
	p := NewProblem(1)
	p.SetObjective([]float64{-1}, true)
	p.AddDense([]float64{-1}, LE, -3)
	res := Solve(p)
	if res.Status != Optimal || math.Abs(res.Objective+3) > 1e-6 {
		t.Errorf("got %v obj %v, want optimal -3", res.Status, res.Objective)
	}
}

func TestDegenerateProblem(t *testing.T) {
	// A classic cycling-prone problem (Beale); Bland fallback must terminate.
	p := NewProblem(4)
	p.SetObjective([]float64{0.75, -150, 0.02, -6}, true)
	p.AddDense([]float64{0.25, -60, -0.04, 9}, LE, 0)
	p.AddDense([]float64{0.5, -90, -0.02, 3}, LE, 0)
	p.AddDense([]float64{0, 0, 1, 0}, LE, 1)
	res := Solve(p)
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Objective-0.05) > 1e-6 {
		t.Errorf("objective = %v, want 0.05", res.Objective)
	}
}

func TestOpAndStatusStrings(t *testing.T) {
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "=" {
		t.Error("Op strings")
	}
	if Op(9).String() == "" || Status(9).String() == "" {
		t.Error("fallback strings empty")
	}
	for _, s := range []Status{Optimal, Infeasible, Unbounded, IterationLimit} {
		if s.String() == "" {
			t.Error("empty status string")
		}
	}
}

// TestKnapsackRelaxationMatchesGreedy cross-checks the simplex against the
// closed-form solution of the fractional knapsack problem.
func TestKnapsackRelaxationMatchesGreedy(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		w := make([]float64, n)
		v := make([]float64, n)
		var totalW float64
		for i := range w {
			w[i] = 1 + float64(rng.Intn(20))
			v[i] = 1 + float64(rng.Intn(50))
			totalW += w[i]
		}
		cap := 1 + rng.Float64()*totalW

		p := NewProblem(n)
		p.SetObjective(v, true)
		var terms []Term
		for i := range w {
			p.SetBounds(i, 0, 1)
			terms = append(terms, Term{Var: i, Coeff: w[i]})
		}
		p.AddConstraint(terms, LE, cap)
		res := Solve(p)
		if res.Status != Optimal {
			return false
		}

		// Greedy closed form.
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return v[idx[a]]/w[idx[a]] > v[idx[b]]/w[idx[b]] })
		remaining := cap
		want := 0.0
		for _, i := range idx {
			if remaining <= 0 {
				break
			}
			take := math.Min(1, remaining/w[i])
			want += take * v[i]
			remaining -= take * w[i]
		}
		return math.Abs(res.Objective-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestRandomFeasibility checks that on random problems built around a known
// feasible point the solver reports optimal, satisfies every constraint and
// does at least as well as the known point.
func TestRandomFeasibility(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		m := 1 + rng.Intn(6)
		p := NewProblem(n)
		obj := make([]float64, n)
		x0 := make([]float64, n)
		for j := range obj {
			obj[j] = float64(rng.Intn(21) - 10)
			x0[j] = rng.Float64() * 5
			p.SetBounds(j, 0, 10)
		}
		p.SetObjective(obj, true)
		rows := make([][]float64, m)
		rhs := make([]float64, m)
		for i := 0; i < m; i++ {
			rows[i] = make([]float64, n)
			dot := 0.0
			for j := 0; j < n; j++ {
				rows[i][j] = float64(rng.Intn(11) - 5)
				dot += rows[i][j] * x0[j]
			}
			rhs[i] = dot + rng.Float64()*3 // slack keeps x0 feasible
			p.AddDense(rows[i], LE, rhs[i])
		}
		res := Solve(p)
		if res.Status != Optimal {
			return false
		}
		// Feasibility of the returned point.
		for i := 0; i < m; i++ {
			dot := 0.0
			for j := 0; j < n; j++ {
				dot += rows[i][j] * res.X[j]
			}
			if dot > rhs[i]+1e-6 {
				return false
			}
		}
		for j := 0; j < n; j++ {
			if res.X[j] < -1e-6 || res.X[j] > 10+1e-6 {
				return false
			}
		}
		// Optimality relative to the known feasible point.
		objX0 := 0.0
		for j := range obj {
			objX0 += obj[j] * x0[j]
		}
		return res.Objective >= objX0-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestAddConstraintPanicsOnBadVar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range variable")
		}
	}()
	p := NewProblem(1)
	p.AddConstraint([]Term{{Var: 3, Coeff: 1}}, LE, 1)
}

func TestIterationLimit(t *testing.T) {
	p := NewProblem(3)
	p.SetObjective([]float64{1, 1, 1}, true)
	p.AddDense([]float64{1, 1, 1}, LE, 10)
	p.AddDense([]float64{1, 2, 3}, LE, 15)
	p.MaxIters = 1
	res := Solve(p)
	if res.Status != IterationLimit && res.Status != Optimal {
		t.Errorf("status = %v, want iteration-limit or optimal", res.Status)
	}
}

// Clone must produce a fully independent problem: changing the clone's
// bounds or adding constraints to it leaves the original untouched, and
// both solve to their own optima.
func TestCloneIsIndependent(t *testing.T) {
	p := NewProblem(2)
	p.SetObjective([]float64{3, 2}, true)
	p.AddDense([]float64{1, 1}, LE, 4)
	p.SetBounds(0, 0, 3)

	c := p.Clone()
	c.SetBounds(0, 0, 1) // tighten only the clone
	c.AddConstraint([]Term{{Var: 1, Coeff: 1}}, LE, 2)

	orig := Solve(p)
	cl := Solve(c)
	if math.Abs(orig.Objective-11) > 1e-6 { // x = (3, 1)
		t.Errorf("original objective %v, want 11", orig.Objective)
	}
	if math.Abs(cl.Objective-7) > 1e-6 { // x = (1, 2)
		t.Errorf("clone objective %v, want 7", cl.Objective)
	}
	if p.UpperBound(0) != 3 || len(p.cons) != 1 {
		t.Error("mutating the clone leaked into the original")
	}
}

// Clones must be solvable concurrently with distinct per-clone bounds —
// exactly how the parallel branch and bound uses them (run under -race).
func TestClonesSolveConcurrently(t *testing.T) {
	base := NewProblem(3)
	base.SetObjective([]float64{2, 3, 4}, true)
	base.AddDense([]float64{1, 1, 1}, LE, 2)
	for j := 0; j < 3; j++ {
		base.SetBounds(j, 0, 1)
	}
	var wg sync.WaitGroup
	objs := make([]float64, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := base.Clone()
			c.SetBounds(w%3, 0, 0) // a different restriction per goroutine
			res := Solve(c)
			if res.Status != Optimal {
				return
			}
			objs[w] = res.Objective
		}(w)
	}
	wg.Wait()
	for w := 0; w < 8; w++ {
		want := []float64{7, 6, 5}[w%3]
		if math.Abs(objs[w]-want) > 1e-6 {
			t.Errorf("goroutine %d objective %v, want %v", w, objs[w], want)
		}
	}
}

// A Stop channel closed before cloning is shared: every clone gives up with
// IterationLimit, which is how one cancellation interrupts all workers.
func TestCloneSharesStopChannel(t *testing.T) {
	stop := make(chan struct{})
	p := NewProblem(2)
	p.SetObjective([]float64{1, 1}, true)
	p.AddDense([]float64{1, 1}, LE, 3)
	p.SetBounds(0, 0, 2)
	p.SetBounds(1, 0, 2)
	p.Stop = stop
	c := p.Clone()
	close(stop)
	res := Solve(c)
	if res.Status != IterationLimit {
		t.Errorf("clone ignored the shared Stop channel: status %v", res.Status)
	}
}
