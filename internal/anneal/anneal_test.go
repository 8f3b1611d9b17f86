package anneal

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"
)

// quadState minimises sum (x_i - target_i)^2 over integer vectors; moves
// adjust one coordinate by +-1.
type quadState struct {
	x      []int
	target []int
}

func (s *quadState) Cost() float64 {
	c := 0.0
	for i := range s.x {
		d := float64(s.x[i] - s.target[i])
		c += d * d
	}
	return c
}

func (s *quadState) Perturb(rng *rand.Rand) func() {
	i := rng.Intn(len(s.x))
	delta := 1
	if rng.Intn(2) == 0 {
		delta = -1
	}
	s.x[i] += delta
	return func() { s.x[i] -= delta }
}

func (s *quadState) Snapshot() interface{} { return append([]int(nil), s.x...) }
func (s *quadState) Restore(v interface{}) { copy(s.x, v.([]int)) }

func TestMinimizeQuadratic(t *testing.T) {
	s := &quadState{x: make([]int, 6), target: []int{5, -3, 7, 0, 2, -8}}
	initial := s.Cost()
	res := Minimize(context.Background(), s, Options{Seed: 1, InitialTemp: 50, FinalTemp: 0.01, MovesPerTemp: 200, Cooling: 0.9})
	if res.BestCost >= initial {
		t.Errorf("no improvement: best %v initial %v", res.BestCost, initial)
	}
	if res.BestCost > 4 {
		t.Errorf("best cost %v, expected near-zero", res.BestCost)
	}
	// The state must be left at the best snapshot.
	if math.Abs(s.Cost()-res.BestCost) > 1e-9 {
		t.Errorf("state cost %v != best %v", s.Cost(), res.BestCost)
	}
	if res.Moves == 0 || res.Accepted == 0 {
		t.Error("expected some moves and acceptances")
	}
	if res.InitialCost != initial {
		t.Error("initial cost not recorded")
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	run := func() float64 {
		s := &quadState{x: make([]int, 4), target: []int{3, 3, 3, 3}}
		res := Minimize(context.Background(), s, Options{Seed: 42, InitialTemp: 10, FinalTemp: 0.1, MovesPerTemp: 50})
		return res.BestCost
	}
	if run() != run() {
		t.Error("same seed should give identical results")
	}
}

func TestDefaultsApplied(t *testing.T) {
	s := &quadState{x: []int{10}, target: []int{0}}
	res := Minimize(context.Background(), s, Options{Seed: 3})
	if res.Moves == 0 {
		t.Error("defaults should allow at least one move")
	}
	if res.BestCost > res.InitialCost {
		t.Error("best cost should never exceed initial cost")
	}
}

func TestTimeLimit(t *testing.T) {
	s := &quadState{x: make([]int, 100), target: make([]int, 100)}
	for i := range s.target {
		s.target[i] = 1000
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	Minimize(ctx, s, Options{Seed: 5, InitialTemp: 1e6, FinalTemp: 1e-9, MovesPerTemp: 100000, Cooling: 0.999999})
	if time.Since(start) > 2*time.Second {
		t.Errorf("context deadline ignored: %v", time.Since(start))
	}
}

func TestReheats(t *testing.T) {
	s := &quadState{x: make([]int, 5), target: []int{9, 9, 9, 9, 9}}
	res := Minimize(context.Background(), s, Options{Seed: 7, InitialTemp: 20, FinalTemp: 0.5, MovesPerTemp: 30, Reheats: 2})
	if res.BestCost > res.InitialCost {
		t.Error("reheated run worse than initial state")
	}
}
