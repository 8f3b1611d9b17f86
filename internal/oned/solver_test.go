package oned

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"eblow/internal/core"
	"eblow/internal/gen"
)

func solveInstance(t *testing.T, in *core.Instance, opt Options) (*core.Solution, *Trace) {
	t.Helper()
	sol, trace, err := Solve(context.Background(), in, opt)
	if err != nil {
		t.Fatalf("Solve(%s): %v", in.Name, err)
	}
	if err := sol.Validate(in); err != nil {
		t.Fatalf("Solve(%s) produced invalid solution: %v", in.Name, err)
	}
	return sol, trace
}

func TestSolveSmallInstance(t *testing.T) {
	in := gen.Small(core.OneD, 80, 4, 11)
	sol, _ := solveInstance(t, in, Defaults())

	if sol.NumSelected() == 0 {
		t.Fatal("expected some characters on the stencil")
	}
	vsb := core.MaxInt64(in.VSBTime())
	if sol.WritingTime >= vsb {
		t.Errorf("writing time %d should beat the pure-VSB time %d", sol.WritingTime, vsb)
	}
	if sol.WritingTime != in.WritingTime(sol.Selected) {
		t.Error("cached writing time inconsistent with selection")
	}
	if sol.Algorithm != "E-BLOW-1" {
		t.Errorf("algorithm label %q", sol.Algorithm)
	}
}

func TestSolveSingleCP(t *testing.T) {
	in := gen.Small(core.OneD, 60, 1, 7)
	sol, _ := solveInstance(t, in, Defaults())
	if sol.NumSelected() == 0 {
		t.Fatal("no characters selected")
	}
}

func TestSolveRejectsBadInstances(t *testing.T) {
	if _, _, err := Solve(context.Background(), &core.Instance{}, Defaults()); err == nil {
		t.Error("empty instance should be rejected")
	}
	in := gen.Small(core.TwoD, 20, 1, 3)
	if _, _, err := Solve(context.Background(), in, Defaults()); err == nil {
		t.Error("2D instance should be rejected by the 1D planner")
	}
	// Stencil too short for even one row.
	bad := gen.Small(core.OneD, 10, 1, 3)
	bad.StencilHeight = 10
	if _, _, err := Solve(context.Background(), bad, Defaults()); err == nil {
		t.Error("instance without rows should be rejected")
	}
}

func TestEBlow0VersusEBlow1Labels(t *testing.T) {
	in := gen.Small(core.OneD, 60, 4, 21)
	opt0 := Defaults()
	opt0.EnableFastConvergence = false
	opt0.EnablePostInsertion = false
	sol0, _ := solveInstance(t, in, opt0)
	if sol0.Algorithm != "E-BLOW-0" {
		t.Errorf("ablation label %q, want E-BLOW-0", sol0.Algorithm)
	}
	sol1, _ := solveInstance(t, in, Defaults())
	if sol1.Algorithm != "E-BLOW-1" {
		t.Errorf("label %q, want E-BLOW-1", sol1.Algorithm)
	}
	// Both must be valid; E-BLOW-1 should never be dramatically worse.
	if float64(sol1.WritingTime) > 1.2*float64(sol0.WritingTime) {
		t.Errorf("E-BLOW-1 (%d) much worse than E-BLOW-0 (%d)", sol1.WritingTime, sol0.WritingTime)
	}
}

func TestTraceCollection(t *testing.T) {
	in := gen.Small(core.OneD, 100, 4, 31)
	opt := Defaults()
	opt.CollectTrace = true
	_, trace := solveInstance(t, in, opt)
	if len(trace.UnsolvedPerIteration) == 0 {
		t.Fatal("no iterations recorded")
	}
	for k := 1; k < len(trace.UnsolvedPerIteration); k++ {
		if trace.UnsolvedPerIteration[k] > trace.UnsolvedPerIteration[k-1] {
			t.Errorf("unsolved count increased at iteration %d: %v", k, trace.UnsolvedPerIteration)
		}
	}
}

func TestSimplexBackendAgreesOnTinyInstance(t *testing.T) {
	in := gen.Tiny1T(1)
	optS := Defaults()
	optS.Backend = SimplexLP
	solS, _ := solveInstance(t, in, optS)
	solK, _ := solveInstance(t, in, Defaults())
	// Both backends must produce valid solutions of similar quality on a
	// tiny instance (identical results are not required: rounding order may
	// differ).
	if solS.NumSelected() == 0 || solK.NumSelected() == 0 {
		t.Error("backends selected nothing")
	}
	diff := float64(solS.WritingTime) - float64(solK.WritingTime)
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.5*float64(solK.WritingTime) {
		t.Errorf("backends disagree too much: simplex %d vs structured %d", solS.WritingTime, solK.WritingTime)
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	d := o.withDefaults()
	if d.Thinv != 0.9 || d.Lth != 0.1 || d.Uth != 0.9 || d.PruneThreshold != 20 {
		t.Errorf("paper defaults not applied: %+v", d)
	}
	if LPBackend(0).String() != "structured" || SimplexLP.String() != "simplex" {
		t.Error("backend names")
	}
	custom := Options{Thinv: 0.5}
	c := custom.withDefaults()
	if c.Thinv != 0.5 {
		t.Error("explicit Thinv overridden")
	}
}

func TestBestInsertion(t *testing.T) {
	in := rowInstance([][3]int{{40, 5, 5}, {40, 10, 10}, {30, 2, 2}}, 1000)
	s := &solver{in: in, n: 3, m: 1, w: 1000}
	s.width = []int{40, 40, 30}
	// Inserting char 2 (blanks 2/2) next to char 1 (blanks 10/10) shares
	// only 2 on that side; every gap of the row [0, 1] is evaluated.
	gap, delta := s.bestInsertion(2, []int{0, 1})
	if gap < 0 || gap > 2 {
		t.Fatalf("gap = %d", gap)
	}
	// Left end: 30 - min(2, 5) = 28; middle: 30 - min(5,2) - min(2,10) + min(5,10) = 31; right end: 30 - min(10,2) = 28.
	if delta != 28 {
		t.Errorf("delta = %d, want 28", delta)
	}
	gap, delta = s.bestInsertion(2, nil)
	if gap != 0 || delta != 30 {
		t.Errorf("empty row insertion = (%d,%d), want (0,30)", gap, delta)
	}
}

// Property: on random instances the planner always returns a valid solution
// whose writing time is no worse than leaving the stencil empty, and every
// row respects the stencil width.
func TestSolveAlwaysValidProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := 20 + int(seed%40+40)%40
		in := gen.Small(core.OneD, n, 1+int(seed%5+5)%5, seed)
		sol, _, err := Solve(context.Background(), in, Defaults())
		if err != nil {
			return false
		}
		if err := sol.Validate(in); err != nil {
			return false
		}
		empty := in.WritingTime(make([]bool, in.NumCharacters()))
		if sol.WritingTime > empty {
			return false
		}
		for _, row := range sol.Rows {
			if row.Width(in) > in.StencilWidth {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Error(err)
	}
}

// Property: adding the post stages never invalidates the solution and never
// reduces the number of selected characters.
func TestPostStagesMonotoneSelection(t *testing.T) {
	f := func(seed int64) bool {
		in := gen.Small(core.OneD, 60, 3, seed)
		base := Defaults()
		base.EnablePostInsertion = false
		base.EnablePostSwap = false
		solBase, _, err := Solve(context.Background(), in, base)
		if err != nil || solBase.Validate(in) != nil {
			return false
		}
		full, _, err := Solve(context.Background(), in, Defaults())
		if err != nil || full.Validate(in) != nil {
			return false
		}
		return full.NumSelected() >= solBase.NumSelected()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Error(err)
	}
}

// A returned trace must not keep its solver alive: job records hold
// Result.Trace for as long as the job is kept, and the solver owns the rows,
// the last relaxation and the warm bases. Fifty retained traces of one
// instance may add only the traces themselves to the live heap.
func TestSolveTraceDoesNotPinSolver(t *testing.T) {
	in := gen.Small(core.OneD, 200, 4, 7)
	opt := Defaults()
	opt.Workers = 1
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	traces := make([]*Trace, 50)
	for k := range traces {
		_, tr, err := Solve(context.Background(), in, opt)
		if err != nil {
			t.Fatal(err)
		}
		traces[k] = tr
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perTrace := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / int64(len(traces))
	t.Logf("live heap per retained trace: %d bytes", perTrace)
	if perTrace > 2048 {
		t.Errorf("each retained trace keeps %d bytes live; the trace is pinning its solver", perTrace)
	}
	runtime.KeepAlive(traces)
}
