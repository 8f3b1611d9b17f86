package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestForCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		const n = 103
		hits := make([]int32, n)
		For(workers, n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
	}
}

func TestForEmpty(t *testing.T) {
	called := false
	For(4, 0, func(int) { called = true })
	if called {
		t.Error("For called fn for n=0")
	}
}

func TestForResultIndependentOfWorkers(t *testing.T) {
	const n = 50
	want := make([]int, n)
	For(1, n, func(i int) { want[i] = i * i })
	got := make([]int, n)
	For(8, n, func(i int) { got[i] = i * i })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slot %d differs: %d vs %d", i, got[i], want[i])
		}
	}
}

func TestDoRunsEverything(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		var count int32
		fns := make([]func(), 9)
		for i := range fns {
			fns[i] = func() { atomic.AddInt32(&count, 1) }
		}
		Do(workers, fns...)
		if count != 9 {
			t.Fatalf("workers=%d: ran %d of 9 tasks", workers, count)
		}
	}
}

func TestPoolRunsEverySubmittedTask(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		p := NewPool(workers)
		var count int32
		for i := 0; i < 50; i++ {
			p.Submit(func() { atomic.AddInt32(&count, 1) })
		}
		p.Close()
		if count != 50 {
			t.Fatalf("workers=%d: ran %d of 50 tasks", workers, count)
		}
	}
}

// TestPoolBoundsConcurrency holds every task until the test releases it:
// once workers tasks have started, no further task may start until one is
// released, and each release lets exactly one more start.
func TestPoolBoundsConcurrency(t *testing.T) {
	const workers, tasks = 3, 20
	p := NewPool(workers)
	started := make(chan int, tasks)
	release := make(chan struct{})
	for i := 0; i < tasks; i++ {
		p.Submit(func() {
			started <- i
			<-release
		})
	}
	running := 0
	for ; running < workers; running++ {
		<-started
	}
	for done := 0; done < tasks; done++ {
		// Yield so a worker beyond the bound, if there were one, gets to
		// start its task before the check.
		for i := 0; i < 4; i++ {
			runtime.Gosched()
		}
		select {
		case i := <-started:
			t.Fatalf("task %d started while %d held tasks filled a %d-worker pool", i, running, workers)
		default:
		}
		release <- struct{}{}
		running--
		if done+workers < tasks {
			<-started
			running++
		}
	}
	p.Close()
}

func TestPoolSingleWorkerIsFIFO(t *testing.T) {
	p := NewPool(1)
	var mu sync.Mutex
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		p.Submit(func() {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
	}
	p.Close()
	for i, v := range order {
		if v != i {
			t.Fatalf("single-worker pool ran out of order: %v", order)
		}
	}
	if len(order) != 10 {
		t.Fatalf("ran %d of 10 tasks", len(order))
	}
}

func TestPoolSubmitAfterClosePanics(t *testing.T) {
	p := NewPool(1)
	p.Close()
	defer func() {
		if recover() == nil {
			t.Error("Submit on a closed pool did not panic")
		}
	}()
	p.Submit(func() {})
}

func TestDoSequentialOrder(t *testing.T) {
	var order []int
	Do(1,
		func() { order = append(order, 0) },
		func() { order = append(order, 1) },
		func() { order = append(order, 2) },
	)
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential Do ran out of order: %v", order)
		}
	}
}
