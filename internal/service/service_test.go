package service

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"eblow"
)

// waitTerminal follows the job's event stream, which ends right after its
// terminal event, and returns the final status.
func waitTerminal(t testing.TB, m *Manager, id string, within time.Duration) JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), within)
	defer cancel()
	events, err := m.Events(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	for range events {
	}
	s, err := m.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if !s.State.Terminal() {
		t.Fatalf("job %s still %s after %s", id, s.State, within)
	}
	return s
}

// waitState reads the job's event stream until an event reports the given
// state; the stream ending first (terminal job or timeout) fails the test.
func waitState(t *testing.T, m *Manager, id string, want State, within time.Duration) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), within)
	defer cancel()
	events, err := m.Events(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	var last State
	for e := range events {
		if e.State == want {
			return
		}
		last = e.State
	}
	t.Fatalf("job %s is %s, wanted %s", id, last, want)
}

// A single-worker pool must drain queued jobs strictly in submission order,
// one at a time.
func TestQueueFairnessSingleWorkerFIFO(t *testing.T) {
	m := New(Config{Workers: 1})
	defer m.Close()

	var ids []string
	for i := 0; i < 5; i++ {
		in := eblow.SmallInstance(eblow.OneD, 30, 2, int64(i+1))
		s, err := m.Submit(JobSpec{Instance: in, Solver: "greedy", Label: fmt.Sprintf("job-%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, s.ID)
	}
	var statuses []JobStatus
	for _, id := range ids {
		statuses = append(statuses, waitTerminal(t, m, id, 30*time.Second))
	}
	for i, s := range statuses {
		if s.State != StateDone {
			t.Fatalf("job %s finished %s (%v)", s.ID, s.State, s.Err)
		}
		if i == 0 {
			continue
		}
		prev := statuses[i-1]
		if s.Started.Before(prev.Started) {
			t.Errorf("job %s started before earlier job %s on a 1-worker pool", s.ID, prev.ID)
		}
		if s.Started.Before(prev.Finished) {
			t.Errorf("jobs %s and %s overlapped on a 1-worker pool", prev.ID, s.ID)
		}
	}
}

// More jobs than workers: everything still completes, sharing the pool.
func TestQueueDrainsWithFewWorkers(t *testing.T) {
	m := New(Config{Workers: 2})
	defer m.Close()

	var ids []string
	for i := 0; i < 8; i++ {
		kind := eblow.OneD
		if i%2 == 1 {
			kind = eblow.TwoD
		}
		in := eblow.SmallInstance(kind, 25, 2, int64(i+1))
		s, err := m.Submit(JobSpec{Instance: in, Solver: "greedy"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, s.ID)
	}
	for _, id := range ids {
		if s := waitTerminal(t, m, id, 30*time.Second); s.State != StateDone || !s.Result.Feasible {
			t.Fatalf("job %s: state %s, err %v", id, s.State, s.Err)
		}
	}
}

// Cancelling a running job must return its worker to the pool so queued
// jobs still get solved.
func TestCancelMidSolveFreesWorker(t *testing.T) {
	m := New(Config{Workers: 1})
	defer m.Close()

	// Exact branch and bound on 60 characters runs far longer than this
	// test and checks the context at every node, so it cancels promptly.
	slow, err := m.Submit(JobSpec{Instance: eblow.SmallInstance(eblow.OneD, 60, 3, 7), Solver: "exact"})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := m.Submit(JobSpec{Instance: eblow.SmallInstance(eblow.OneD, 30, 2, 8), Solver: "greedy"})
	if err != nil {
		t.Fatal(err)
	}

	waitState(t, m, slow.ID, StateRunning, 30*time.Second)
	if s, err := m.Status(fast.ID); err != nil || s.State != StateQueued {
		t.Fatalf("fast job should be queued behind the slow one, got %v (%v)", s.State, err)
	}
	if _, err := m.Cancel(slow.ID); err != nil {
		t.Fatal(err)
	}
	// Cancellation itself lands within milliseconds; the wide budget only
	// absorbs CPU contention from test packages running in parallel.
	if s := waitTerminal(t, m, slow.ID, time.Minute); s.State != StateCanceled {
		t.Fatalf("cancelled job finished %s (%v)", s.State, s.Err)
	}
	if s := waitTerminal(t, m, fast.ID, 30*time.Second); s.State != StateDone {
		t.Fatalf("queued job behind the cancelled one finished %s (%v)", s.State, s.Err)
	}
}

// Cancelling a queued job must skip it entirely.
func TestCancelQueuedJob(t *testing.T) {
	m := New(Config{Workers: 1})
	defer m.Close()

	slow, err := m.Submit(JobSpec{Instance: eblow.SmallInstance(eblow.OneD, 60, 3, 9), Solver: "exact"})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m.Submit(JobSpec{Instance: eblow.SmallInstance(eblow.OneD, 30, 2, 10), Solver: "greedy"})
	if err != nil {
		t.Fatal(err)
	}
	if s, err := m.Cancel(queued.ID); err != nil || s.State != StateCanceled {
		t.Fatalf("queued cancel: state %v, err %v", s.State, err)
	}
	if _, err := m.Cancel(slow.ID); err != nil {
		t.Fatal(err)
	}
	if s := waitTerminal(t, m, queued.ID, 5*time.Second); s.State != StateCanceled {
		t.Fatalf("queued job ran anyway: %s", s.State)
	}
}

// For a fixed seed the batched results must match solving each instance
// serially, regardless of worker count and submission order.
func TestDeterministicAcrossQueueOrder(t *testing.T) {
	type tc struct {
		kind eblow.Kind
		n    int
		seed int64
	}
	cases := []tc{{eblow.OneD, 40, 1}, {eblow.TwoD, 30, 2}, {eblow.OneD, 50, 3}, {eblow.TwoD, 25, 4}}
	instances := make([]*eblow.Instance, len(cases))
	reference := make([]*eblow.Result, len(cases))
	for i, c := range cases {
		instances[i] = eblow.SmallInstance(c.kind, c.n, 2, c.seed)
		r, err := eblow.SolveWith(context.Background(), instances[i], eblow.Params{Workers: 1, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		reference[i] = r
	}

	for _, order := range [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}} {
		m := New(Config{Workers: 3})
		ids := make(map[int]string)
		for _, idx := range order {
			s, err := m.Submit(JobSpec{Instance: instances[idx], Params: eblow.Params{Seed: 5}})
			if err != nil {
				t.Fatal(err)
			}
			ids[idx] = s.ID
		}
		for idx, id := range ids {
			s := waitTerminal(t, m, id, 2*time.Minute)
			if s.State != StateDone {
				t.Fatalf("order %v: job %s finished %s (%v)", order, id, s.State, s.Err)
			}
			want := reference[idx]
			if s.Result.Objective != want.Objective {
				t.Errorf("order %v instance %d: objective %d, serial reference %d",
					order, idx, s.Result.Objective, want.Objective)
			}
			if !reflect.DeepEqual(s.Result.Solution.Selected, want.Solution.Selected) {
				t.Errorf("order %v instance %d: selection differs from serial reference", order, idx)
			}
		}
		m.Close()
	}
}

func TestEventsReplayAndStream(t *testing.T) {
	m := New(Config{Workers: 1})
	defer m.Close()

	in := eblow.SmallInstance(eblow.OneD, 30, 2, 11)
	s, err := m.Submit(JobSpec{Instance: in, Solver: "greedy"})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := m.Events(context.Background(), s.ID)
	if err != nil {
		t.Fatal(err)
	}
	var events []Event
	for e := range ch {
		events = append(events, e)
	}
	if len(events) < 3 {
		t.Fatalf("expected at least queued/running/done events, got %v", events)
	}
	if events[0].State != StateQueued {
		t.Errorf("first event %s, want queued", events[0].State)
	}
	last := events[len(events)-1]
	if last.State != StateDone {
		t.Errorf("last event %s, want done", last.State)
	}
	for i, e := range events {
		if e.Seq != i+1 {
			t.Errorf("event %d has seq %d", i, e.Seq)
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	m := New(Config{Workers: 1})
	defer m.Close()

	if _, err := m.Submit(JobSpec{}); err == nil {
		t.Error("nil instance accepted")
	}
	in := eblow.SmallInstance(eblow.TwoD, 20, 2, 12)
	if _, err := m.Submit(JobSpec{Instance: in, Solver: "nope"}); err == nil {
		t.Error("unknown solver accepted")
	}
	if _, err := m.Submit(JobSpec{Instance: in, Solver: "row25"}); err == nil {
		t.Error("1D-only solver accepted for a 2D instance")
	}
	if _, err := m.Submit(JobSpec{Instance: in, Solver: "greedy", Params: eblow.Params{Strategies: []string{"eblow"}}}); err == nil {
		t.Error("conflicting solver + strategy set accepted")
	}
	if _, err := m.Submit(JobSpec{Instance: in, Params: eblow.Params{Strategies: []string{"greedy", "portfolio"}}}); err == nil {
		t.Error("portfolio inside a strategy set accepted")
	}
	if _, err := m.Events(context.Background(), "none"); err != ErrNotFound {
		t.Errorf("Events on unknown job: %v", err)
	}
	if _, err := m.Status("none"); err != ErrNotFound {
		t.Errorf("Status on unknown job: %v", err)
	}
}

func TestCloseRejectsNewJobs(t *testing.T) {
	m := New(Config{Workers: 1})
	m.Close()
	if _, err := m.Submit(JobSpec{Instance: eblow.SmallInstance(eblow.OneD, 20, 2, 13), Solver: "greedy"}); err != ErrClosed {
		t.Errorf("submit after close: %v", err)
	}
}

// Terminal job records must disappear once their TTL expires, while queued
// and running jobs survive any TTL.
func TestRecordTTLEviction(t *testing.T) {
	m := New(Config{Workers: 1, RecordTTL: 50 * time.Millisecond})
	defer m.Close()

	s, err := m.Submit(JobSpec{Instance: eblow.SmallInstance(eblow.OneD, 30, 2, 1), Solver: "greedy"})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, s.ID, 30*time.Second)

	// The janitor (or the next API touch) must evict the record after the
	// TTL; poll rather than sleep a fixed amount.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := m.Status(s.ID); errors.Is(err, ErrNotFound) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("finished job record never evicted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := len(m.List()); got != 0 {
		t.Fatalf("List still returns %d evicted jobs", got)
	}

	// A job that never finishes is never evicted, no matter the TTL.
	slow, err := m.Submit(JobSpec{Instance: eblow.SmallInstance(eblow.OneD, 60, 3, 2), Solver: "exact"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, slow.ID, StateRunning, 30*time.Second)
	time.Sleep(120 * time.Millisecond) // two TTLs
	if _, err := m.Status(slow.ID); err != nil {
		t.Fatalf("running job evicted by TTL: %v", err)
	}
	if _, err := m.Cancel(slow.ID); err != nil {
		t.Fatal(err)
	}
}

// Close must be safe to call twice: the second call is a pure no-op, not a
// double-close panic on the pool, contexts or WAL.
func TestCloseIdempotent(t *testing.T) {
	m := New(Config{Workers: 1})
	s, err := m.Submit(JobSpec{Instance: eblow.SmallInstance(eblow.OneD, 30, 2, 1), Solver: "greedy"})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, s.ID, 30*time.Second)
	m.Close()
	m.Close()
	if _, err := m.Submit(JobSpec{Instance: eblow.SmallInstance(eblow.OneD, 20, 2, 2), Solver: "greedy"}); err != ErrClosed {
		t.Errorf("submit after double close: %v", err)
	}

	// And with a WAL attached: the second Close must not re-close the log.
	m2 := New(Config{Workers: 1, WAL: openTestWAL(t, t.TempDir()+"/jobs.wal")})
	m2.Close()
	m2.Close()
}

// An event subscriber attached while the janitor TTL-evicts the record must
// still receive the full stream and a clean channel close — not a hang or a
// send on a freed record.
func TestEventSubscriberSurvivesTTLEviction(t *testing.T) {
	m := New(Config{Workers: 1, RecordTTL: 50 * time.Millisecond})
	defer m.Close()

	s, err := m.Submit(JobSpec{Instance: eblow.SmallInstance(eblow.OneD, 30, 2, 3), Solver: "greedy"})
	if err != nil {
		t.Fatal(err)
	}
	// Subscribe but do not read yet: the subscriber goroutine blocks on the
	// unbuffered channel while the job finishes and the janitor evicts it.
	ch, err := m.Events(context.Background(), s.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, s.ID, 30*time.Second)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := m.Status(s.ID); errors.Is(err, ErrNotFound) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("record never evicted")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Drain after eviction: every event must still arrive, ending terminal.
	var events []Event
	timeout := time.After(10 * time.Second)
	for {
		select {
		case e, ok := <-ch:
			if !ok {
				if len(events) < 3 || !events[len(events)-1].State.Terminal() {
					t.Fatalf("evicted job's stream incomplete: %v", events)
				}
				return
			}
			events = append(events, e)
		case <-timeout:
			t.Fatalf("stream never closed after eviction; got %v", events)
		}
	}
}

// A deadline-expired solve that hands back its best-so-far incumbent must
// keep the partial result on the failed record instead of discarding it,
// with the cause in Err.
func TestDeadlineExpiryKeepsIncumbent(t *testing.T) {
	in := eblow.SmallInstance(eblow.OneD, 30, 2, 4)
	partial, err := eblow.SolveWith(context.Background(), in, eblow.Params{Workers: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	orig := solveSpec
	defer func() { solveSpec = orig }()
	solveSpec = func(ctx context.Context, spec JobSpec) (*eblow.Result, error) {
		return partial, context.DeadlineExceeded
	}

	m := New(Config{Workers: 1})
	defer m.Close()
	s, err := m.Submit(JobSpec{Instance: in, Solver: "greedy"})
	if err != nil {
		t.Fatal(err)
	}
	done := waitTerminal(t, m, s.ID, 30*time.Second)
	if done.State != StateFailed {
		t.Fatalf("deadline-expired job finished %s", done.State)
	}
	if !errors.Is(done.Err, context.DeadlineExceeded) {
		t.Errorf("Err = %v, want the deadline cause", done.Err)
	}
	if done.Result == nil || done.Result.Solution == nil {
		t.Fatalf("best-so-far incumbent dropped: %+v", done.Result)
	}
	if done.Result.Objective != partial.Objective {
		t.Errorf("incumbent objective %d, want %d", done.Result.Objective, partial.Objective)
	}
}

// Once MaxPending jobs wait in the queue, Submit must reject with
// ErrQueueFull; a freed slot accepts submissions again.
func TestMaxPendingBound(t *testing.T) {
	m := New(Config{Workers: 1, MaxPending: 1})
	defer m.Close()

	running, err := m.Submit(JobSpec{Instance: eblow.SmallInstance(eblow.OneD, 60, 3, 3), Solver: "exact"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, running.ID, StateRunning, 30*time.Second)

	queued, err := m.Submit(JobSpec{Instance: eblow.SmallInstance(eblow.OneD, 30, 2, 4), Solver: "greedy"})
	if err != nil {
		t.Fatalf("first queued job rejected: %v", err)
	}
	if _, err := m.Submit(JobSpec{Instance: eblow.SmallInstance(eblow.OneD, 30, 2, 5), Solver: "greedy"}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("expected ErrQueueFull, got %v", err)
	}

	// Cancelling the queued job frees its slot immediately.
	if _, err := m.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(JobSpec{Instance: eblow.SmallInstance(eblow.OneD, 30, 2, 6), Solver: "greedy"}); err != nil {
		t.Fatalf("slot not freed after cancelling a queued job: %v", err)
	}
	if _, err := m.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
}
