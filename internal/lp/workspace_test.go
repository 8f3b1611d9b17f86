package lp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// assignmentLP builds an LP shaped like the 1D planner's fast-convergence
// ILP relaxation: about 30 character-to-row binaries relaxed to [0,1], one
// capacity row per stencil row and one at-most-once row per character,
// about 30 rows in all.
func assignmentLP(rng *rand.Rand) *Problem {
	const rows = 10
	chars := 18 + rng.Intn(6)
	type pair struct{ char, row int }
	var vars []pair
	for c := 0; c < chars; c++ {
		r := rng.Intn(rows)
		vars = append(vars, pair{c, r})
		if rng.Intn(3) == 0 {
			vars = append(vars, pair{c, (r + 1 + rng.Intn(rows-1)) % rows})
		}
	}
	p := NewProblem(len(vars))
	obj := make([]float64, len(vars))
	width := make([]float64, chars)
	for c := range width {
		width[c] = float64(24 + rng.Intn(17))
	}
	rowTerms := make([][]Term, rows)
	charTerms := make([][]Term, chars)
	for v, pr := range vars {
		obj[v] = float64(10 + rng.Intn(200))
		p.SetBounds(v, 0, 1)
		rowTerms[pr.row] = append(rowTerms[pr.row], Term{Var: v, Coeff: width[pr.char]})
		charTerms[pr.char] = append(charTerms[pr.char], Term{Var: v, Coeff: 1})
	}
	p.SetObjective(obj, true)
	for _, terms := range rowTerms {
		if len(terms) > 0 {
			p.AddConstraint(terms, LE, float64(30+rng.Intn(50)))
		}
	}
	for _, terms := range charTerms {
		p.AddConstraint(terms, LE, 1)
	}
	return p
}

// diffResult describes the first difference between two results, or
// returns "" when they are bit-identical: status, objective, pivot count,
// vertex and basis.
func diffResult(a, b *Result) string {
	switch {
	case a.Status != b.Status:
		return fmt.Sprintf("status %v vs %v", a.Status, b.Status)
	case math.Float64bits(a.Objective) != math.Float64bits(b.Objective):
		return fmt.Sprintf("objective %v vs %v", a.Objective, b.Objective)
	case a.Iters != b.Iters:
		return fmt.Sprintf("iters %d vs %d", a.Iters, b.Iters)
	case len(a.X) != len(b.X):
		return fmt.Sprintf("len(X) %d vs %d", len(a.X), len(b.X))
	case (a.Basis == nil) != (b.Basis == nil):
		return fmt.Sprintf("basis %v vs %v", a.Basis, b.Basis)
	case a.Basis != nil && !slices.Equal(a.Basis.Status, b.Basis.Status):
		return fmt.Sprintf("basis %v vs %v", a.Basis.Status, b.Basis.Status)
	}
	for j := range a.X {
		if math.Float64bits(a.X[j]) != math.Float64bits(b.X[j]) {
			return fmt.Sprintf("X[%d] %v vs %v", j, a.X[j], b.X[j])
		}
	}
	return ""
}

// randomBasis draws a status for every variable of p, about one Basic per
// row, so the solver meets wrong basic counts and singular bases.
func randomBasis(rng *rand.Rand, p *Problem) *Basis {
	tot := p.NumVars() + len(p.cons)
	st := make([]VarStatus, tot)
	for j := range st {
		if rng.Intn(tot) < len(p.cons)+1 {
			st[j] = Basic
		} else {
			st[j] = VarStatus(rng.Intn(3))
		}
	}
	return &Basis{Status: st}
}

// singularBasis reports whether factorizing warm on p replaces a column.
func singularBasis(p *Problem, warm *Basis) bool {
	s := newSpx(p.Clone())
	s.load()
	s.adoptBasis(warm)
	var f luFactor
	repairs, _ := f.factorize(s.heading, s.csc, s.n, s.logicalInBasis, nil)
	return len(repairs) > 0
}

// TestWorkspaceReuseIsInvisible runs branch-and-bound-like sequences on one
// reused problem and requires every result to be bit-identical to a solve
// of a fresh clone, which builds its CSC matrix and workspace from scratch:
// the root cold, children warm from the root basis under branched bounds,
// grandchildren warm from their parent, warm starts from random (often
// singular, so repaired) bases, and solves after AddConstraint on the
// problem and on a clone sharing its matrix.
func TestWorkspaceReuseIsInvisible(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	solves, repaired := 0, 0
	for trial := 0; trial < 150; trial++ {
		var orig *Problem
		if trial%3 == 0 {
			orig = assignmentLP(rng)
		} else {
			orig = randomLP(rng, trial%3 == 1)
		}
		n := orig.NumVars()
		p := orig.Clone()
		// check solves the reused p and a fresh clone of orig, both under
		// the root bounds plus the given changes, warm from warm.
		check := func(what string, warm *Basis, set func(q *Problem)) *Result {
			t.Helper()
			for j := 0; j < n; j++ {
				p.SetBounds(j, orig.LowerBound(j), orig.UpperBound(j))
			}
			fresh := orig.Clone()
			set(p)
			set(fresh)
			got := SolveWarm(p, warm)
			want := SolveWarm(fresh, warm)
			if d := diffResult(got, want); d != "" {
				t.Fatalf("trial %d %s: reused workspace diverged from a fresh solve: %s", trial, what, d)
			}
			solves++
			return got
		}
		none := func(*Problem) {}

		root := check("root", nil, none)
		if root.Status == Optimal {
			for c := 0; c < 4; c++ {
				j := rng.Intn(n)
				x := root.X[j]
				lo, up := orig.LowerBound(j), orig.UpperBound(j)
				down := func(q *Problem) { q.SetBounds(j, lo, math.Floor(x)) }
				if c%2 == 1 {
					down = func(q *Problem) { q.SetBounds(j, math.Ceil(x), up) }
				}
				child := check(fmt.Sprintf("child %d", c), root.Basis, down)
				if child.Status != Optimal {
					continue
				}
				k := rng.Intn(n)
				xk := child.X[k]
				check(fmt.Sprintf("grandchild %d", c), child.Basis, func(q *Problem) {
					down(q)
					q.SetBounds(k, math.Ceil(xk), q.UpperBound(k))
				})
			}
		}
		for r := 0; r < 3; r++ {
			warm := randomBasis(rng, orig)
			if singularBasis(orig, warm) {
				repaired++
			}
			check(fmt.Sprintf("random basis %d", r), warm, none)
		}

		// A row added after a solve must rebuild the matrix, on the
		// problem itself and on a clone that shares its matrix.
		row := make([]float64, n)
		for j := range row {
			row[j] = float64(rng.Intn(7) - 3)
		}
		rhs := float64(rng.Intn(9))
		c := p.Clone()
		c.AddDense(row, LE, rhs)
		got := Solve(c)
		check("after a clone added a row", root.Basis, none)
		orig.AddDense(row, LE, rhs)
		p.AddDense(row, LE, rhs)
		if p.a != nil || p.ws != nil {
			t.Fatalf("trial %d: AddConstraint kept the matrix or workspace", trial)
		}
		grown := check("after AddConstraint", nil, none)
		if d := diffResult(got, grown); d != "" {
			t.Fatalf("trial %d: clone with an added row diverged: %s", trial, d)
		}
		check("warm after AddConstraint", grown.Basis, none)
	}
	if repaired < 30 {
		t.Fatalf("only %d of the random warm bases were singular; generator drifted", repaired)
	}
	t.Logf("%d solves compared, %d singular warm bases", solves, repaired)
}

// TestWarmNodeSolveAllocs pins what a warm branch-and-bound node costs in
// allocations once its problem's workspace exists: the Result, its X, the
// Basis and the Basis's status slice, nothing per pivot or per
// refactorization.
func TestWarmNodeSolveAllocs(t *testing.T) {
	p := assignmentLP(rand.New(rand.NewSource(1)))
	root := Solve(p)
	if root.Status != Optimal {
		t.Fatalf("root: %v", root)
	}
	j := slices.IndexFunc(root.X, func(x float64) bool { return x > 0 && x < 1 })
	if j < 0 {
		t.Fatal("root relaxation is integral; no node to branch on")
	}
	iters := 0
	allocs := testing.AllocsPerRun(20, func() {
		p.SetBounds(j, 0, 0)
		res := SolveWarm(p, root.Basis)
		p.SetBounds(j, 0, 1)
		if res.Status != Optimal {
			t.Fatalf("node: %v", res)
		}
		iters = res.Iters
	})
	if iters == 0 {
		t.Fatal("node solve took no pivots; pick a branching that moves the vertex")
	}
	if allocs != 4 {
		t.Errorf("warm node solve made %v allocations, want 4 (Result, X, Basis, Basis.Status)", allocs)
	}
}

var nodeSink *Result

// BenchmarkWarmNodeSolve re-solves a plan1d-shaped assignment LP (about
// 30 binaries, about 30 rows) warm from its root basis, fixing one variable
// per node the way a branch-and-bound child does, on one reused problem as
// an ilp worker's clone is.
func BenchmarkWarmNodeSolve(b *testing.B) {
	p := assignmentLP(rand.New(rand.NewSource(1)))
	root := Solve(p)
	if root.Status != Optimal {
		b.Fatalf("root: %v", root)
	}
	n := p.NumVars()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, v := i%n, float64(i/n%2)
		p.SetBounds(j, v, v)
		res := SolveWarm(p, root.Basis)
		p.SetBounds(j, 0, 1)
		nodeSink = res
	}
}
