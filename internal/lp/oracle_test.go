package lp

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// randomLP builds a random bounded-variable LP. Roughly half the seeds
// anchor the constraint right-hand sides around a known interior point so
// the instance is usually feasible; the rest are unconstrained-random so
// infeasible and unbounded cases appear too. Fixed variables (lo == up),
// empty rows and singleton rows appear throughout, so the simplex meets
// them as stated. withFree sprinkles in free variables (no finite bound on
// either side), which the dense oracle does not support natively — see
// splitFree.
func randomLP(rng *rand.Rand, withFree bool) *Problem {
	n := 1 + rng.Intn(7)
	m := 1 + rng.Intn(7)
	p := NewProblem(n)
	obj := make([]float64, n)
	for j := 0; j < n; j++ {
		obj[j] = float64(rng.Intn(21) - 10)
		switch {
		case withFree && rng.Intn(4) == 0:
			p.SetBounds(j, math.Inf(-1), math.Inf(1))
		case rng.Intn(6) == 0:
			v := float64(rng.Intn(3))
			p.SetBounds(j, v, v)
		case rng.Intn(3) == 0:
			p.SetBounds(j, float64(rng.Intn(3)), math.Inf(1))
		default:
			lo := float64(rng.Intn(3))
			p.SetBounds(j, lo, lo+1+rng.Float64()*8)
		}
	}
	p.SetObjective(obj, rng.Intn(2) == 0)

	anchored := rng.Intn(2) == 0
	x0 := make([]float64, n)
	for j := range x0 {
		lo, up := p.LowerBound(j), p.UpperBound(j)
		switch {
		case math.IsInf(lo, -1):
			x0[j] = rng.Float64()*6 - 3
		case math.IsInf(up, 1):
			x0[j] = lo + rng.Float64()*4
		default:
			x0[j] = lo + rng.Float64()*(up-lo)
		}
	}
	for i := 0; i < m; i++ {
		row := make([]float64, n)
		switch rng.Intn(8) {
		case 0: // empty row
		case 1: // singleton row
			row[rng.Intn(n)] = float64(rng.Intn(11) - 5)
		default:
			for j := range row {
				row[j] = float64(rng.Intn(11) - 5)
			}
		}
		dot := 0.0
		for j := range row {
			dot += row[j] * x0[j]
		}
		op := []Op{LE, GE, EQ}[rng.Intn(3)]
		rhs := float64(rng.Intn(21) - 10)
		if anchored {
			switch op {
			case LE:
				rhs = dot + rng.Float64()*3
			case GE:
				rhs = dot - rng.Float64()*3
			default:
				rhs = dot
			}
		}
		p.AddDense(row, op, rhs)
	}
	return p
}

// splitFree rewrites every free variable x as xp - xm with xp, xm >= 0 so
// the dense oracle (which rejects infinite lower bounds) can solve an
// equivalent problem. Only status and objective survive the rewrite; the
// vertex lives in a different space.
func splitFree(p *Problem) *Problem {
	n := p.NumVars()
	col := make([]int, n)
	neg := make([]int, n)
	nn := 0
	for j := 0; j < n; j++ {
		col[j] = nn
		nn++
		if math.IsInf(p.LowerBound(j), -1) {
			neg[j] = nn
			nn++
		} else {
			neg[j] = -1
		}
	}
	q := NewProblem(nn)
	obj := make([]float64, nn)
	for j := 0; j < n; j++ {
		obj[col[j]] = p.obj[j]
		if neg[j] >= 0 {
			obj[neg[j]] = -p.obj[j]
		} else {
			q.SetBounds(col[j], p.LowerBound(j), p.UpperBound(j))
		}
	}
	q.SetObjective(obj, p.maximize)
	for _, c := range p.cons {
		var out []Term
		for _, t := range c.terms {
			out = append(out, Term{Var: col[t.Var], Coeff: t.Coeff})
			if neg[t.Var] >= 0 {
				out = append(out, Term{Var: neg[t.Var], Coeff: -t.Coeff})
			}
		}
		q.AddConstraint(out, c.op, c.rhs)
	}
	return q
}

// vertexFeasible checks x against every bound and constraint of p.
func vertexFeasible(p *Problem, x []float64) bool {
	const tol = 1e-5
	for j := 0; j < p.NumVars(); j++ {
		if x[j] < p.LowerBound(j)-tol || x[j] > p.UpperBound(j)+tol {
			return false
		}
	}
	for _, c := range p.cons {
		dot := 0.0
		for _, t := range c.terms {
			dot += t.Coeff * x[t.Var]
		}
		switch c.op {
		case LE:
			if dot > c.rhs+tol {
				return false
			}
		case GE:
			if dot < c.rhs-tol {
				return false
			}
		default:
			if math.Abs(dot-c.rhs) > tol {
				return false
			}
		}
	}
	return true
}

// TestSparseMatchesDenseOracle is the solver equivalence property: on
// random LPs with equality, empty and singleton rows, fixed variables,
// finite upper bounds and free variables,
// the sparse revised simplex and the dense tableau oracle must agree on
// status and objective, and the sparse vertex must satisfy the original
// problem exactly.
func TestSparseMatchesDenseOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		withFree := rng.Intn(2) == 0
		p := randomLP(rng, withFree)

		sp, err := Solve(p.Clone())
		if err != nil {
			t.Logf("seed %d: sparse error %v", seed, err)
			return false
		}
		dp := p
		if withFree {
			dp = splitFree(p)
		}
		dn, err := solveDense(dp.Clone())
		if err != nil {
			t.Logf("seed %d: dense error %v", seed, err)
			return false
		}
		if sp.Status != dn.Status {
			t.Logf("seed %d: sparse %v vs dense %v", seed, sp.Status, dn.Status)
			return false
		}
		if sp.Status != Optimal {
			return true
		}
		if !vertexFeasible(p, sp.X) {
			t.Logf("seed %d: sparse vertex infeasible: %v", seed, sp.X)
			return false
		}
		scale := 1 + math.Abs(dn.Objective)
		if math.Abs(sp.Objective-dn.Objective) > 1e-6*scale {
			t.Logf("seed %d: objective sparse %v vs dense %v", seed, sp.Objective, dn.Objective)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestWarmResolveIdenticalProblem re-solves a just-solved LP from its own
// optimal basis: the warm solve must confirm optimality with zero pivots,
// the warm-starts-are-cheap contract that branch-and-bound children rely
// on.
func TestWarmResolveIdenticalProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	solved := 0
	for trial := 0; trial < 80; trial++ {
		p := randomLP(rng, true)
		cold, err := Solve(p)
		if err != nil {
			t.Fatalf("trial %d: cold solve error: %v", trial, err)
		}
		if cold.Status != Optimal || cold.Basis == nil {
			continue
		}
		solved++
		warm, err := SolveWarm(p, cold.Basis)
		if err != nil {
			t.Fatalf("trial %d: warm solve error: %v", trial, err)
		}
		if warm.Status != Optimal {
			t.Fatalf("trial %d: warm status %v", trial, warm.Status)
		}
		scale := 1 + math.Abs(cold.Objective)
		if math.Abs(warm.Objective-cold.Objective) > 1e-6*scale {
			t.Errorf("trial %d: warm objective %v vs cold %v", trial, warm.Objective, cold.Objective)
		}
		if warm.Iters != 0 {
			t.Errorf("trial %d: warm re-solve took %d pivots from the optimal basis", trial, warm.Iters)
		}
	}
	if solved < 20 {
		t.Fatalf("only %d optimal instances generated; generator drifted", solved)
	}
}

// TestWarmPerturbedMatchesCold mutates bounds (as branch-and-bound
// children do) and objective, and checks that a warm start from the stale
// basis reaches the same status and objective as a cold solve of the
// mutated problem.
func TestWarmPerturbedMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	checked := 0
	for trial := 0; trial < 120; trial++ {
		p := randomLP(rng, false)
		base, err := Solve(p)
		if err != nil {
			t.Fatalf("trial %d: base solve error: %v", trial, err)
		}
		if base.Status != Optimal || base.Basis == nil {
			continue
		}

		mut := p.Clone()
		// Tighten one variable the way a branching step would.
		j := rng.Intn(mut.NumVars())
		lo, up := mut.LowerBound(j), mut.UpperBound(j)
		if rng.Intn(2) == 0 {
			mut.SetBounds(j, lo, math.Min(up, lo+math.Floor((up-lo)/2)))
		} else if !math.IsInf(up, 1) {
			mut.SetBounds(j, math.Ceil((lo+up)/2), up)
		}
		// Jitter the objective the way a profit update would.
		obj := make([]float64, mut.NumVars())
		for k := range obj {
			obj[k] = mut.obj[k] + float64(rng.Intn(3)-1)
		}
		mut.SetObjective(obj, mut.maximize)

		cold, err := Solve(mut)
		if err != nil {
			t.Fatalf("trial %d: cold solve error: %v", trial, err)
		}
		warm, err := SolveWarm(mut.Clone(), base.Basis)
		if err != nil {
			t.Fatalf("trial %d: warm solve error: %v", trial, err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("trial %d: warm status %v vs cold %v", trial, warm.Status, cold.Status)
		}
		if cold.Status == Optimal {
			checked++
			scale := 1 + math.Abs(cold.Objective)
			if math.Abs(warm.Objective-cold.Objective) > 1e-6*scale {
				t.Errorf("trial %d: warm objective %v vs cold %v", trial, warm.Objective, cold.Objective)
			}
			if !vertexFeasible(mut, warm.X) {
				t.Errorf("trial %d: warm vertex infeasible", trial)
			}
		}
	}
	if checked < 20 {
		t.Fatalf("only %d optimal mutated instances; generator drifted", checked)
	}
}

// TestCyclingLPTerminates runs the Beale cycling example through the
// sparse solver and the dense oracle: the stall-triggered Bland fallback
// must terminate at the optimum within a small pivot budget instead of
// burning MaxIters.
func TestCyclingLPTerminates(t *testing.T) {
	for _, b := range []struct {
		name  string
		solve func(*Problem) (*Result, error)
	}{{"sparse", Solve}, {"dense", solveDense}} {
		name := b.name
		p := NewProblem(4)
		p.SetObjective([]float64{0.75, -150, 0.02, -6}, true)
		p.AddDense([]float64{0.25, -60, -0.04, 9}, LE, 0)
		p.AddDense([]float64{0.5, -90, -0.02, 3}, LE, 0)
		p.AddDense([]float64{0, 0, 1, 0}, LE, 1)
		res, err := b.solve(p)
		if err != nil {
			t.Fatalf("%s: error %v", name, err)
		}
		if res.Status != Optimal {
			t.Fatalf("%s: status %v", name, res.Status)
		}
		if math.Abs(res.Objective-0.05) > 1e-6 {
			t.Errorf("%s: objective %v, want 0.05", name, res.Objective)
		}
		if res.Iters > 500 {
			t.Errorf("%s: %d pivots on a 4-variable LP; anti-cycling is not engaging", name, res.Iters)
		}
	}
}

// TestSparseDeterministicAcrossWorkers solves the same random LPs on 8
// concurrent goroutines (run under -race in CI) and requires bit-identical
// results: the sparse solver must be a pure function of the problem, with
// no shared mutable state between solves.
func TestSparseDeterministicAcrossWorkers(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		p := randomLP(rand.New(rand.NewSource(seed)), true)
		ref, err := Solve(p.Clone())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		const workers = 8
		results := make([]*Result, workers)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				results[w], errs[w] = Solve(p.Clone())
			}(w)
		}
		wg.Wait()
		for w := 0; w < workers; w++ {
			if errs[w] != nil {
				t.Fatalf("seed %d worker %d: %v", seed, w, errs[w])
			}
			r := results[w]
			if r.Status != ref.Status || r.Objective != ref.Objective || r.Iters != ref.Iters {
				t.Fatalf("seed %d worker %d: result diverged (%v %v %d vs %v %v %d)",
					seed, w, r.Status, r.Objective, r.Iters, ref.Status, ref.Objective, ref.Iters)
			}
			for j := range r.X {
				if r.X[j] != ref.X[j] {
					t.Fatalf("seed %d worker %d: X[%d] = %v vs %v", seed, w, j, r.X[j], ref.X[j])
				}
			}
		}
	}
}
