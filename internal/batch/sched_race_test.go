package batch

import (
	"fmt"
	"sync"
	"testing"
)

// TestQueueConcurrentAccess drives Push, Pop and Stats from
// competing goroutines. The queue used to rely entirely on the service's
// mutex; now that GET /v1/stats (and the dispatcher's fleet aggregation)
// can read counters concurrently, the queue carries its own lock — this
// test is the -race witness for it.
func TestQueueConcurrentAccess(t *testing.T) {
	q := NewQueue(8)
	const producers = 4
	const perProducer = 200

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				q.Push(Item{ID: fmt.Sprintf("p%d-%d", p, i), Cost: float64(i % 7)})
			}
		}(p)
	}
	var popped int
	var popWg sync.WaitGroup
	var mu sync.Mutex
	for c := 0; c < 2; c++ {
		popWg.Add(1)
		go func() {
			defer popWg.Done()
			for {
				_, ok := q.Pop()
				mu.Lock()
				if ok {
					popped++
				}
				done := popped >= producers*perProducer
				mu.Unlock()
				if done {
					return
				}
			}
		}()
	}
	stop := make(chan struct{})
	var statsWg sync.WaitGroup
	statsWg.Add(1)
	go func() {
		defer statsWg.Done()
		var prev Stats
		for {
			select {
			case <-stop:
				return
			default:
			}
			// The counters only grow; a torn read could go backwards.
			s := q.Stats()
			if s.Overtakes < prev.Overtakes || s.AgedPops < prev.AgedPops {
				t.Errorf("stats went backwards: %+v after %+v", s, prev)
				return
			}
			prev = s
		}
	}()

	wg.Wait()
	popWg.Wait()
	close(stop)
	statsWg.Wait()

	if popped != producers*perProducer {
		t.Fatalf("popped %d jobs, pushed %d", popped, producers*perProducer)
	}
	if s := q.Stats(); s.Pending != 0 {
		t.Fatalf("queue not drained: %+v", s)
	}
}
