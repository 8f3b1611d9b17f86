package eblow

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"
)

func TestSolveWithDefaultMatchesSolve(t *testing.T) {
	in := SmallInstance(OneD, 40, 2, 21)
	r, err := SolveWith(context.Background(), in, Params{})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if r.Solution.WritingTime != sol.WritingTime {
		t.Errorf("SolveWith T=%d, Solve T=%d", r.Solution.WritingTime, sol.WritingTime)
	}
	if r.Strategy != "eblow" || !r.Feasible {
		t.Errorf("unexpected result meta: strategy %q feasible %v", r.Strategy, r.Feasible)
	}
}

func TestSolveWithSingleStrategy(t *testing.T) {
	in := SmallInstance(OneD, 40, 2, 22)
	r, err := SolveWith(context.Background(), in, Params{Strategies: []string{"row25"}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Strategy != "row25" {
		t.Errorf("strategy %q, want row25", r.Strategy)
	}
	s, _ := Lookup("row25")
	ref, err := s.Solve(context.Background(), in, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Objective != ref.Objective {
		t.Errorf("SolveWith row25 T=%d, Lookup row25 T=%d", r.Objective, ref.Objective)
	}
}

func TestSolveWithStrategySetRaces(t *testing.T) {
	in := SmallInstance(OneD, 40, 2, 23)
	r, err := SolveWith(context.Background(), in, Params{Strategies: []string{"greedy", "row25"}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Runs) != 2 {
		t.Fatalf("expected a 2-entrant race, got runs %v", r.Runs)
	}
	if r.Strategy != "greedy" && r.Strategy != "row25" {
		t.Errorf("winner %q not among the requested strategies", r.Strategy)
	}
}

func TestSolveWithPortfolioName(t *testing.T) {
	in := SmallInstance(TwoD, 30, 2, 24)
	r, err := SolveWith(context.Background(), in, Params{Strategies: []string{"portfolio"}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	racing := 0
	for _, s := range SolverInfos() {
		if s.Racing && s.Supports(TwoD) {
			racing++
		}
	}
	if len(r.Runs) != racing {
		t.Errorf("default race had %d entrants, want %d", len(r.Runs), racing)
	}
}

func TestSolveWithUnknownStrategy(t *testing.T) {
	in := SmallInstance(OneD, 20, 2, 25)
	if _, err := SolveWith(context.Background(), in, Params{Strategies: []string{"nope"}}); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestLookupAndSolvers(t *testing.T) {
	if _, ok := Lookup("eblow"); !ok {
		t.Error("eblow missing from registry")
	}
	if _, ok := Lookup("bogus"); ok {
		t.Error("bogus solver found")
	}
	names := map[string]bool{}
	for _, s := range Solvers(OneD) {
		names[s.Name()] = true
	}
	for _, want := range []string{"eblow", "row25", "heuristic24", "greedy", "exact", "portfolio"} {
		if !names[want] {
			t.Errorf("Solvers(OneD) missing %q", want)
		}
	}
	if names["sa24"] {
		t.Error("Solvers(OneD) lists the 2D-only sa24")
	}
}

func TestEncodeDecodeInstanceRoundTrip(t *testing.T) {
	in := SmallInstance(TwoD, 20, 2, 26)
	var buf bytes.Buffer
	if err := EncodeInstance(&buf, in); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeInstance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, back) {
		t.Error("Encode/Decode round trip lost data")
	}
}

func TestDecodeInstanceErrors(t *testing.T) {
	if _, err := DecodeInstance(strings.NewReader("{broken")); err == nil ||
		!strings.HasPrefix(err.Error(), "eblow:") {
		t.Errorf("malformed JSON error %v lacks the eblow: prefix", err)
	}
	if _, err := DecodeInstance(strings.NewReader("{}")); err == nil ||
		!strings.HasPrefix(err.Error(), "eblow:") {
		t.Errorf("invalid instance error %v lacks the eblow: prefix", err)
	}
}

func TestReadInstanceErrorsCarryPrefix(t *testing.T) {
	if _, err := ReadInstance("/does/not/exist.json"); err == nil ||
		!strings.HasPrefix(err.Error(), "eblow:") {
		t.Errorf("missing file error %v lacks the eblow: prefix", err)
	}
}
