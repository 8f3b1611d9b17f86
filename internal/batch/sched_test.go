package batch

import (
	"fmt"
	"math/rand"
	"testing"
)

func pushN(q *Queue, items ...Item) {
	for _, it := range items {
		q.Push(it)
	}
}

// drainAll pops until empty and returns the job IDs in pop order.
func drainAll(q *Queue) []string {
	var order []string
	for it, ok := q.Pop(); ok; it, ok = q.Pop() {
		order = append(order, it.ID)
	}
	return order
}

func TestQueuePopsByCost(t *testing.T) {
	q := NewQueue(100)
	pushN(q,
		Item{ID: "big", Cost: 1000},
		Item{ID: "mid", Cost: 100},
		Item{ID: "tiny", Cost: 1},
	)
	got := drainAll(q)
	want := []string{"tiny", "mid", "big"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

func TestQueueCostTiesGoToSubmissionOrder(t *testing.T) {
	q := NewQueue(100)
	pushN(q, Item{ID: "a", Cost: 5}, Item{ID: "b", Cost: 5}, Item{ID: "c", Cost: 5})
	got := drainAll(q)
	if got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("tie order %v, want submission order", got)
	}
}

// TestQueueAgingBound is the fairness guarantee under the adversarial mix:
// one expensive job followed by a stream of cheap ones. The expensive job
// must be overtaken by exactly MaxJump cheap jobs, then pinned to the front.
func TestQueueAgingBound(t *testing.T) {
	const maxJump = 3
	q := NewQueue(maxJump)
	q.Push(Item{ID: "whale", Cost: 1e9})
	for i := 0; i < 10; i++ {
		q.Push(Item{ID: fmt.Sprintf("minnow%d", i), Cost: 1})
	}
	got := drainAll(q)
	// The whale waits through exactly maxJump cheap pops.
	for pos, id := range got {
		if id == "whale" {
			if pos != maxJump {
				t.Fatalf("whale popped at position %d, want %d (aging bound)", pos, maxJump)
			}
			break
		}
	}
	st := q.Stats()
	if st.AgedPops != 1 {
		t.Fatalf("AgedPops = %d, want 1", st.AgedPops)
	}
	if st.Overtakes != maxJump {
		t.Fatalf("Overtakes = %d, want %d", st.Overtakes, maxJump)
	}
}

// A zero aging bound is strict FIFO order, and a negative one means zero.
func TestQueueMaxJumpZeroIsFIFO(t *testing.T) {
	for _, maxJump := range []int{0, -1} {
		q := NewQueue(maxJump)
		pushN(q, Item{ID: "slow", Cost: 100}, Item{ID: "fast", Cost: 1})
		got := drainAll(q)
		if got[0] != "slow" || got[1] != "fast" {
			t.Fatalf("maxJump=%d order %v, want strict FIFO", maxJump, got)
		}
	}
}

func TestQueueRemove(t *testing.T) {
	q := NewQueue(10)
	pushN(q, Item{ID: "a", Cost: 1}, Item{ID: "b", Cost: 2})
	if !q.Remove("a") {
		t.Fatal("Remove(a) = false")
	}
	if q.Remove("a") {
		t.Fatal("second Remove(a) = true")
	}
	got := drainAll(q)
	if len(got) != 1 || got[0] != "b" {
		t.Fatalf("after Remove, drain = %v, want [b]", got)
	}
}

// TestQueueFairnessProperty drives random adversarial cost mixes through
// the scheduler and checks the invariant directly: in the realized pop
// order, no job is preceded by more than maxJump jobs that were submitted
// after it.
func TestQueueFairnessProperty(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		maxJump := rng.Intn(6)
		q := NewQueue(maxJump)
		n := 30 + rng.Intn(40)
		submitted := make(map[string]int, n)
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("j%d", i)
			submitted[id] = i
			cost := 1.0
			if rng.Intn(3) == 0 {
				cost = float64(1 + rng.Intn(1_000_000))
			}
			q.Push(Item{ID: id, Cost: cost})
		}
		order := drainAll(q)
		if len(order) != n {
			t.Fatalf("seed %d: drained %d of %d jobs", seed, len(order), n)
		}
		for pos, id := range order {
			overtakes := 0
			for _, earlier := range order[:pos] {
				if submitted[earlier] > submitted[id] {
					overtakes++
				}
			}
			if overtakes > maxJump {
				t.Fatalf("seed %d: job %s overtaken %d times, aging bound is %d (order %v)",
					seed, id, overtakes, maxJump, order)
			}
		}
	}
}

func TestQueueStatsPending(t *testing.T) {
	q := NewQueue(16)
	pushN(q, Item{ID: "a"}, Item{ID: "b"})
	if got := q.Stats().Pending; got != 2 {
		t.Fatalf("Pending = %d, want 2", got)
	}
	if it, ok := q.Pop(); !ok || it.ID != "a" {
		t.Fatalf("Pop = %+v, %v; want a", it, ok)
	}
	if got := q.Stats().Pending; got != 1 {
		t.Fatalf("Pending after pop = %d, want 1", got)
	}
	q.Pop()
	if it, ok := q.Pop(); ok {
		t.Fatalf("Pop on an empty queue = %+v, true", it)
	}
}
