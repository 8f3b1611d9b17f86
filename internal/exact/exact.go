// Package exact builds the full ILP formulations (3) and (7) of the E-BLOW
// paper — simultaneous character selection and physical placement — and
// solves them with the branch-and-bound solver of package ilp. The
// formulations are exponential in practice (that is the point of the Table 5
// comparison: they prove optimality on tiny instances and time out beyond a
// dozen candidates), so callers bound every call with a context deadline.
package exact

import (
	"context"
	"fmt"
	"time"

	"eblow/internal/core"
	"eblow/internal/ilp"
	"eblow/internal/lp"
)

// Options configures an exact solve. It has no time option: the context is
// the search's one stop signal, and a deadline on it returns the best
// incumbent found so far (Result.Solution stays nil when there is none).
type Options struct {
	// Workers is the number of branch-and-bound workers evaluating node
	// relaxations in parallel, each on its own simplex clone (0 = one per
	// CPU, 1 = sequential). Status, objective and solution are bit-identical
	// for every worker count.
	Workers int
}

// Result is the outcome of an exact solve.
type Result struct {
	// Solution is nil when the solver hit its limit without an incumbent.
	Solution *core.Solution
	// Status is the branch-and-bound status.
	Status ilp.Status
	// Optimal reports whether the returned solution is provably optimal.
	Optimal bool
	// Nodes is the number of dealt branch-and-bound nodes (ilp.Result.Nodes).
	Nodes int
	// BinaryVariables is the number of 0/1 variables in the formulation.
	BinaryVariables int
	Elapsed         time.Duration
}

// Solve1D builds formulation (3) for a 1DOSP instance and solves it exactly.
// Variables: x_i (continuous positions), a_ik (assignment of character i to
// row k) and p_ij (left/right ordering); constraints (3a)-(3f). The context
// cancels the branch-and-bound search; an already-done context returns
// ctx.Err() before any work happens.
func Solve1D(ctx context.Context, in *core.Instance, opt Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if in.Kind != core.OneD {
		return nil, fmt.Errorf("exact: %q is not a 1DOSP instance", in.Name)
	}
	n := in.NumCharacters()
	m := in.NumRows()
	if m == 0 {
		return nil, fmt.Errorf("exact: stencil of %q has no rows", in.Name)
	}
	W := float64(in.StencilWidth)

	// Variable layout:
	//   0                 : Ttotal
	//   1 .. n            : x_i
	//   1+n + i*m + k     : a_ik
	//   pBase + pairIndex : p_ij (i<j)
	numP := n * (n - 1) / 2
	aBase := 1 + n
	pBase := aBase + n*m
	total := pBase + numP
	pIdx := func(i, j int) int { // requires i < j
		return pBase + (i*(2*n-i-1))/2 + (j - i - 1)
	}

	prob := lp.NewProblem(total)
	obj := make([]float64, total)
	obj[0] = 1
	prob.SetObjective(obj, false) // minimize Ttotal

	vsb := in.VSBTime()
	maxVSB := core.MaxInt64(vsb)
	prob.SetBounds(0, 0, float64(maxVSB))

	var binaries []int
	for i := 0; i < n; i++ {
		wi := float64(in.Characters[i].Width)
		prob.SetBounds(1+i, 0, W-wi) // (3b)
		for k := 0; k < m; k++ {
			v := aBase + i*m + k
			prob.SetBounds(v, 0, 1)
			binaries = append(binaries, v)
		}
	}
	for p := 0; p < numP; p++ {
		prob.SetBounds(pBase+p, 0, 1)
		binaries = append(binaries, pBase+p)
	}

	// (3a): Ttotal >= TVSB_c - sum_i R_ic * sum_k a_ik.
	for c := 0; c < in.NumRegions; c++ {
		terms := []lp.Term{{Var: 0, Coeff: 1}}
		for i := 0; i < n; i++ {
			r := float64(in.Reduction(i, c))
			if r == 0 {
				continue
			}
			for k := 0; k < m; k++ {
				terms = append(terms, lp.Term{Var: aBase + i*m + k, Coeff: r})
			}
		}
		prob.AddConstraint(terms, lp.GE, float64(vsb[c]))
	}
	// (3c): each character on at most one row.
	for i := 0; i < n; i++ {
		terms := make([]lp.Term, 0, m)
		for k := 0; k < m; k++ {
			terms = append(terms, lp.Term{Var: aBase + i*m + k, Coeff: 1})
		}
		prob.AddConstraint(terms, lp.LE, 1)
	}
	// (3d)/(3e): non-overlap per row with blank sharing, activated only when
	// both characters sit on the same row.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			ci, cj := in.Characters[i], in.Characters[j]
			wij := float64(ci.Width - core.HOverlap(ci, cj))
			wji := float64(cj.Width - core.HOverlap(cj, ci))
			p := pIdx(i, j)
			for k := 0; k < m; k++ {
				aik := aBase + i*m + k
				ajk := aBase + j*m + k
				// x_i + wij - x_j <= W*(2 + p_ij - a_ik - a_jk)
				prob.AddConstraint([]lp.Term{
					{Var: 1 + i, Coeff: 1}, {Var: 1 + j, Coeff: -1},
					{Var: p, Coeff: -W}, {Var: aik, Coeff: W}, {Var: ajk, Coeff: W},
				}, lp.LE, 2*W-wij)
				// x_j + wji - x_i <= W*(3 - p_ij - a_ik - a_jk)
				prob.AddConstraint([]lp.Term{
					{Var: 1 + j, Coeff: 1}, {Var: 1 + i, Coeff: -1},
					{Var: p, Coeff: W}, {Var: aik, Coeff: W}, {Var: ajk, Coeff: W},
				}, lp.LE, 3*W-wji)
			}
		}
	}

	res, err := ilp.Solve(ctx, ilp.NewBinaryProblem(prob, binaries), ilp.Options{
		Maximize: false,
		Workers:  opt.Workers,
	})
	if err != nil {
		return nil, err
	}
	out := &Result{
		Status:          res.Status,
		Optimal:         res.Status == ilp.Optimal,
		Nodes:           res.Nodes,
		BinaryVariables: len(binaries),
		Elapsed:         res.Elapsed,
	}
	if res.X == nil {
		return out, nil
	}

	// Decode: row assignment + x positions.
	sol := &core.Solution{Selected: make([]bool, n)}
	rowChars := make(map[int][]int)
	for i := 0; i < n; i++ {
		for k := 0; k < m; k++ {
			if res.X[aBase+i*m+k] > 0.5 {
				sol.Selected[i] = true
				rowChars[k] = append(rowChars[k], i)
			}
		}
	}
	for k := 0; k < m; k++ {
		chars := rowChars[k]
		if len(chars) == 0 {
			continue
		}
		// Order by the x variable and re-pack flush left to remove the
		// slack the big-M constraints allow.
		sortByX(chars, res.X, 1)
		xs := make([]int, len(chars))
		for idx := 1; idx < len(chars); idx++ {
			prev := in.Characters[chars[idx-1]]
			cur := in.Characters[chars[idx]]
			xs[idx] = xs[idx-1] + prev.Width - core.HOverlap(prev, cur)
		}
		sol.Rows = append(sol.Rows, core.Row{Y: k * in.RowHeight, Chars: chars, X: xs})
	}
	sol.PlacementsFromRows()
	sol.Finalize(in, "ILP-1D", res.Elapsed)
	out.Solution = sol
	return out, nil
}

// Solve2D builds formulation (7) for a 2DOSP instance and solves it exactly.
// Variables: a_i (selection), x_i, y_i (positions), p_ij, q_ij (relative
// position encoding); constraints (7a)-(7g). The context cancels the
// branch-and-bound search; an already-done context returns ctx.Err() before
// any work happens.
func Solve2D(ctx context.Context, in *core.Instance, opt Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if in.Kind != core.TwoD {
		return nil, fmt.Errorf("exact: %q is not a 2DOSP instance", in.Name)
	}
	n := in.NumCharacters()
	W := float64(in.StencilWidth)
	H := float64(in.StencilHeight)

	// Variable layout:
	//   0           : Ttotal
	//   1 + i       : a_i
	//   1 + n + i   : x_i
	//   1 + 2n + i  : y_i
	//   pqBase + 2*pairIndex, +1 : p_ij, q_ij
	aBase := 1
	xBase := 1 + n
	yBase := 1 + 2*n
	pqBase := 1 + 3*n
	numPairs := n * (n - 1) / 2
	total := pqBase + 2*numPairs
	pairIdx := func(i, j int) int { return (i*(2*n-i-1))/2 + (j - i - 1) }

	prob := lp.NewProblem(total)
	obj := make([]float64, total)
	obj[0] = 1
	prob.SetObjective(obj, false)

	vsb := in.VSBTime()
	prob.SetBounds(0, 0, float64(core.MaxInt64(vsb)))

	var binaries []int
	for i := 0; i < n; i++ {
		prob.SetBounds(aBase+i, 0, 1)
		binaries = append(binaries, aBase+i)
		prob.SetBounds(xBase+i, 0, W-float64(in.Characters[i].Width))
		prob.SetBounds(yBase+i, 0, H-float64(in.Characters[i].Height))
	}
	for p := 0; p < numPairs; p++ {
		prob.SetBounds(pqBase+2*p, 0, 1)
		prob.SetBounds(pqBase+2*p+1, 0, 1)
		binaries = append(binaries, pqBase+2*p, pqBase+2*p+1)
	}

	// (7a)
	for c := 0; c < in.NumRegions; c++ {
		terms := []lp.Term{{Var: 0, Coeff: 1}}
		for i := 0; i < n; i++ {
			if r := float64(in.Reduction(i, c)); r != 0 {
				terms = append(terms, lp.Term{Var: aBase + i, Coeff: r})
			}
		}
		prob.AddConstraint(terms, lp.GE, float64(vsb[c]))
	}
	// (7b)-(7e)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			ci, cj := in.Characters[i], in.Characters[j]
			wij := float64(ci.Width - core.HOverlap(ci, cj))
			wji := float64(cj.Width - core.HOverlap(cj, ci))
			hij := float64(ci.Height - core.VOverlap(ci, cj))
			hji := float64(cj.Height - core.VOverlap(cj, ci))
			p := pqBase + 2*pairIdx(i, j)
			q := p + 1
			ai, aj := aBase+i, aBase+j
			xi, xj := xBase+i, xBase+j
			yi, yj := yBase+i, yBase+j
			// (7b) x_i + wij <= x_j + W(2 + p + q - a_i - a_j)
			prob.AddConstraint([]lp.Term{
				{Var: xi, Coeff: 1}, {Var: xj, Coeff: -1},
				{Var: p, Coeff: -W}, {Var: q, Coeff: -W}, {Var: ai, Coeff: W}, {Var: aj, Coeff: W},
			}, lp.LE, 2*W-wij)
			// (7c) x_i - wji >= x_j - W(3 + p - q - a_i - a_j)
			prob.AddConstraint([]lp.Term{
				{Var: xi, Coeff: 1}, {Var: xj, Coeff: -1},
				{Var: p, Coeff: W}, {Var: q, Coeff: -W}, {Var: ai, Coeff: -W}, {Var: aj, Coeff: -W},
			}, lp.GE, wji-3*W)
			// (7d) y_i + hij <= y_j + H(3 - p + q - a_i - a_j)
			prob.AddConstraint([]lp.Term{
				{Var: yi, Coeff: 1}, {Var: yj, Coeff: -1},
				{Var: p, Coeff: H}, {Var: q, Coeff: -H}, {Var: ai, Coeff: H}, {Var: aj, Coeff: H},
			}, lp.LE, 3*H-hij)
			// (7e) y_i - hji >= y_j - H(4 - p - q - a_i - a_j)
			prob.AddConstraint([]lp.Term{
				{Var: yi, Coeff: 1}, {Var: yj, Coeff: -1},
				{Var: p, Coeff: -H}, {Var: q, Coeff: -H}, {Var: ai, Coeff: -H}, {Var: aj, Coeff: -H},
			}, lp.GE, hji-4*H)
		}
	}

	res, err := ilp.Solve(ctx, ilp.NewBinaryProblem(prob, binaries), ilp.Options{
		Maximize: false,
		Workers:  opt.Workers,
	})
	if err != nil {
		return nil, err
	}
	out := &Result{
		Status:          res.Status,
		Optimal:         res.Status == ilp.Optimal,
		Nodes:           res.Nodes,
		BinaryVariables: len(binaries),
		Elapsed:         res.Elapsed,
	}
	if res.X == nil {
		return out, nil
	}
	sol := &core.Solution{Selected: make([]bool, n)}
	for i := 0; i < n; i++ {
		if res.X[aBase+i] > 0.5 {
			sol.Selected[i] = true
			sol.Placements = append(sol.Placements, core.Placement{
				Char: i,
				X:    int(res.X[xBase+i] + 0.5),
				Y:    int(res.X[yBase+i] + 0.5),
			})
		}
	}
	sol.Finalize(in, "ILP-2D", res.Elapsed)
	out.Solution = sol
	return out, nil
}

// sortByX orders character ids by their continuous position variables.
func sortByX(chars []int, x []float64, base int) {
	for a := 0; a < len(chars); a++ {
		for b := a + 1; b < len(chars); b++ {
			if x[base+chars[b]] < x[base+chars[a]] {
				chars[a], chars[b] = chars[b], chars[a]
			}
		}
	}
}
