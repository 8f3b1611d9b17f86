package eblow

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"
)

func TestSolveDispatch(t *testing.T) {
	in1 := SmallInstance(OneD, 50, 3, 1)
	sol, err := Solve(context.Background(), in1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.Validate(in1); err != nil {
		t.Fatalf("1D solution invalid: %v", err)
	}

	in2 := SmallInstance(TwoD, 40, 2, 2)
	sol2, err := Solve(context.Background(), in2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sol2.Validate(in2); err != nil {
		t.Fatalf("2D solution invalid: %v", err)
	}
}

func TestFacadeBaselinesAndExact(t *testing.T) {
	if testing.Short() {
		t.Skip("exact ILP solve is slow; run without -short")
	}
	in := SmallInstance(OneD, 40, 2, 3)
	in2 := SmallInstance(TwoD, 30, 2, 4)
	for _, c := range []struct {
		in *Instance
		p  Params
	}{
		{in, Params{Strategies: []string{"greedy"}}},
		{in, Params{Strategies: []string{"heuristic24"}, Seed: 1}},
		{in, Params{Strategies: []string{"row25"}}},
		{in2, Params{Strategies: []string{"greedy"}}},
		{in2, Params{Strategies: []string{"sa24"}, Seed: 1, Deadline: 2 * time.Second}},
	} {
		if r, err := SolveWith(context.Background(), c.in, c.p); err != nil {
			t.Errorf("%v on %s: %v", c.p.Strategies, c.in.Kind, err)
		} else if !r.Feasible || r.Strategy != c.p.Strategies[0] {
			t.Errorf("%v on %s: strategy %q feasible %v", c.p.Strategies, c.in.Kind, r.Strategy, r.Feasible)
		}
	}

	tiny, err := Benchmark("1T-1")
	if err != nil {
		t.Fatal(err)
	}
	exact := Params{Strategies: []string{"exact"}, Deadline: 5 * time.Second}
	res, err := SolveWith(context.Background(), tiny, exact)
	var none *NoIncumbentError
	switch {
	case errors.As(err, &none):
		// A loaded machine may reach the limit before any incumbent.
	case err != nil:
		t.Fatal(err)
	case res.Exact == nil || res.Exact.Solution == nil:
		t.Errorf("exact result carries no plan: %+v", res.Exact)
	}

	// 1T-2 finds no incumbent for many seconds: a short limit must fail
	// with a NoIncumbentError that still reports the search.
	hard, err := Benchmark("1T-2")
	if err != nil {
		t.Fatal(err)
	}
	exact.Deadline = 50 * time.Millisecond
	_, err = SolveWith(context.Background(), hard, exact)
	if !errors.As(err, &none) || none.Exact.BinaryVariables == 0 {
		t.Fatalf("exact under a short limit: err %v, want a NoIncumbentError with details", err)
	}
}

func TestBenchmarkNamesResolve(t *testing.T) {
	names := BenchmarkNames()
	if len(names) != 33 {
		t.Fatalf("expected 33 named benchmarks, got %d", len(names))
	}
	for _, name := range names[:4] {
		if _, err := Benchmark(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := Benchmark("bogus-1"); err == nil {
		t.Error("bogus benchmark accepted")
	}
}

func TestInstanceRoundTrip(t *testing.T) {
	in := SmallInstance(OneD, 20, 2, 5)
	path := filepath.Join(t.TempDir(), "instance.json")
	if err := WriteInstance(path, in); err != nil {
		t.Fatal(err)
	}
	back, err := ReadInstance(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != in.Name || back.NumCharacters() != in.NumCharacters() || back.Kind != in.Kind {
		t.Error("round trip lost data")
	}
	if _, err := ReadInstance(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file should error")
	}
}
