package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"eblow"
)

// mixJob is one entry of the deterministic mixed workload used by the
// batch-identity tests.
type mixJob struct {
	kind   eblow.Kind
	chars  int
	seed   int64
	solver string
}

func digestMix() []mixJob {
	return []mixJob{
		{eblow.TwoD, 20, 101, "sa24"},
		{eblow.OneD, 35, 102, "greedy"},
		{eblow.TwoD, 16, 103, "sa24"},
		{eblow.OneD, 30, 104, "row25"},
		{eblow.OneD, 28, 105, "heuristic24"},
		{eblow.TwoD, 24, 106, "sa24"},
		{eblow.OneD, 30, 107, "eblow"},
		{eblow.OneD, 32, 108, "greedy"},
		{eblow.TwoD, 18, 109, "sa24"},
		{eblow.OneD, 26, 110, "row25"},
	}
}

// runMix submits the workload, waits for every job, and returns the result
// digest per workload index.
func runMix(t *testing.T, m *Manager) []string {
	t.Helper()
	jobs := digestMix()
	ids := make([]string, len(jobs))
	for i, j := range jobs {
		in := eblow.SmallInstance(j.kind, j.chars, 2, j.seed)
		s, err := m.Submit(JobSpec{Instance: in, Solver: j.solver, Params: eblow.Params{Seed: 1, Workers: 1}, Label: fmt.Sprintf("mix-%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = s.ID
	}
	digests := make([]string, len(jobs))
	for i, id := range ids {
		s := waitTerminal(t, m, id, 60*time.Second)
		if s.State != StateDone {
			t.Fatalf("job %s (%s) finished %s: %v", id, jobs[i].solver, s.State, s.Err)
		}
		if s.Digest == "" {
			t.Fatalf("job %s has no result digest", id)
		}
		digests[i] = s.Digest
	}
	return digests
}

// TestBatchMatchesFIFODigests is the service-level batch-identity contract:
// the same workload drained by the cost-model scheduler must produce
// result digests identical to the plain FIFO drain, for narrow and wide
// pools.
func TestBatchMatchesFIFODigests(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			fifo := New(Config{Workers: workers})
			want := runMix(t, fifo)
			fifo.Close()

			batched := New(Config{Workers: workers, Batch: BatchConfig{Enabled: true, MaxJump: 8}})
			got := runMix(t, batched)
			batched.Close()

			for i := range want {
				if got[i] != want[i] {
					t.Errorf("job %d: batched digest %s, FIFO digest %s", i, got[i], want[i])
				}
			}
		})
	}
}

// gateSolve replaces the solve seam so that jobs labeled "gate" block until
// release is closed; everything else solves normally. Both drains run every
// job through this seam, so a gate job holds its pool worker on either.
func gateSolve(t *testing.T, release <-chan struct{}) {
	t.Helper()
	orig := solveSpec
	t.Cleanup(func() { solveSpec = orig })
	solveSpec = func(ctx context.Context, spec JobSpec) (*eblow.Result, error) {
		if spec.Label == "gate" {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return orig(ctx, spec)
	}
}

// While a gate job holds the only worker, jobs queued in descending cost
// order must run one per drain ticket, cheapest first, until the aging
// bound pins the jobs the cheaper ones overtook; the scheduler counters
// must count exactly those jumps. With scheduling off the same queue
// drains in submission order and counts nothing, even at a strict aging
// bound.
func TestBatchCostOrderDrain(t *testing.T) {
	// Submitted most expensive first; static estimates 3000, 1200, 150, 100.
	queued := []struct {
		label, solver string
		chars         int
	}{
		{"a", "eblow", 30},
		{"b", "heuristic24", 30},
		{"c", "row25", 30},
		{"d", "greedy", 20},
	}
	for _, tc := range []struct {
		fifo           bool
		maxJump        int
		order          string
		overtakes, age int
	}{
		// d overtakes a, b, c; c overtakes a, b; b overtakes a.
		{maxJump: 16, order: "dcba", overtakes: 6},
		// After d and c, a and b sit at the bound and pop in submission
		// order, both forced by aging.
		{maxJump: 2, order: "dcab", overtakes: 5, age: 2},
		{fifo: true, maxJump: 16, order: "abcd"},
		{fifo: true, maxJump: -1, order: "abcd"},
	} {
		name := fmt.Sprintf("maxJump=%d", tc.maxJump)
		if tc.fifo {
			name = "fifo-" + name
		}
		t.Run(name, func(t *testing.T) {
			release := make(chan struct{})
			gateSolve(t, release)
			var (
				mu              sync.Mutex
				order           string
				running, maxRun int
			)
			gated := solveSpec
			solveSpec = func(ctx context.Context, spec JobSpec) (*eblow.Result, error) {
				mu.Lock()
				if spec.Label != "gate" {
					order += spec.Label
				}
				running++
				maxRun = max(maxRun, running)
				mu.Unlock()
				defer func() {
					mu.Lock()
					running--
					mu.Unlock()
				}()
				return gated(ctx, spec)
			}

			m := New(Config{Workers: 1, Batch: BatchConfig{Enabled: !tc.fifo, MaxJump: tc.maxJump}})
			defer m.Close()
			blocker, err := m.Submit(JobSpec{Instance: eblow.SmallInstance(eblow.OneD, 30, 2, 1), Solver: "eblow", Label: "gate"})
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, m, blocker.ID, StateRunning, 30*time.Second)

			var ids []string
			for i, q := range queued {
				in := eblow.SmallInstance(eblow.OneD, q.chars, 2, int64(200+i))
				s, err := m.Submit(JobSpec{Instance: in, Solver: q.solver, Params: eblow.Params{Seed: 1, Workers: 1}, Label: q.label})
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, s.ID)
			}
			if st := m.Stats(); st.QueueDepth != len(queued) {
				t.Fatalf("QueueDepth = %d with the worker gated, want %d", st.QueueDepth, len(queued))
			}
			close(release)

			waitTerminal(t, m, blocker.ID, 30*time.Second)
			for _, id := range ids {
				if s := waitTerminal(t, m, id, 30*time.Second); s.State != StateDone {
					t.Fatalf("job %s finished %s: %v", id, s.State, s.Err)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			if order != tc.order {
				t.Errorf("solve order %q, want %q", order, tc.order)
			}
			if maxRun != 1 {
				t.Errorf("%d solves ran at once on a one-worker pool, want 1 per drain ticket", maxRun)
			}
			st := m.Stats()
			if st.Batch.Enabled == tc.fifo {
				t.Fatalf("Batch.Enabled = %v, want %v", st.Batch.Enabled, !tc.fifo)
			}
			if st.Batch.Overtakes != tc.overtakes || st.Batch.AgedPops != tc.age {
				t.Errorf("overtakes %d, aged pops %d; want %d, %d", st.Batch.Overtakes, st.Batch.AgedPops, tc.overtakes, tc.age)
			}
			if st.Batch.Cohorts != 0 || st.Batch.BatchedJobs != 0 {
				t.Errorf("cohort counters %+v, want 0: every pop runs one job", st.Batch)
			}
			if st.QueueDepth != 0 {
				t.Errorf("QueueDepth = %d after drain, want 0", st.QueueDepth)
			}
		})
	}
}

// Cancelling a queued job under batch scheduling must remove it from the
// scheduler queue as well as the job table, and must not disturb the other
// queued jobs.
func TestBatchCancelQueuedJob(t *testing.T) {
	release := make(chan struct{})
	gateSolve(t, release)

	m := New(Config{Workers: 1, Batch: BatchConfig{Enabled: true, MaxJump: 16}})
	defer m.Close()

	blocker, err := m.Submit(JobSpec{Instance: eblow.SmallInstance(eblow.OneD, 30, 2, 1), Solver: "eblow", Label: "gate"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, blocker.ID, StateRunning, 30*time.Second)

	var ids []string
	for i := 0; i < 3; i++ {
		in := eblow.SmallInstance(eblow.TwoD, 16, 2, int64(300+i))
		s, err := m.Submit(JobSpec{Instance: in, Solver: "sa24", Params: eblow.Params{Seed: 1, Workers: 1}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, s.ID)
	}
	victim := ids[1]
	if s, err := m.Cancel(victim); err != nil || s.State != StateCanceled {
		t.Fatalf("Cancel(%s) = %v, %v; want immediate StateCanceled", victim, s.State, err)
	}
	close(release)

	for _, id := range []string{ids[0], ids[2]} {
		if s := waitTerminal(t, m, id, 30*time.Second); s.State != StateDone {
			t.Fatalf("survivor %s finished %s: %v", id, s.State, s.Err)
		}
	}
	if s, err := m.Status(victim); err != nil || s.State != StateCanceled {
		t.Fatalf("victim %s is %v, %v; want it to stay Canceled", victim, s.State, err)
	}
	if st := m.Stats(); st.QueueDepth != 0 {
		t.Errorf("QueueDepth = %d after drain, want 0", st.QueueDepth)
	}
}

// A manager without batch config reports zeroed, disabled batch stats.
func TestStatsBatchDisabled(t *testing.T) {
	m := New(Config{Workers: 1})
	defer m.Close()
	st := m.Stats()
	if st.Batch.Enabled {
		t.Fatal("Batch.Enabled = true on a FIFO manager")
	}
	if st.Workers != 1 {
		t.Fatalf("Workers = %d, want 1", st.Workers)
	}
}

// GET /v1/stats serves the operational snapshot.
func TestHTTPStats(t *testing.T) {
	m := New(Config{Workers: 2, Batch: BatchConfig{Enabled: true}})
	defer m.Close()
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	s, err := m.Submit(JobSpec{Instance: eblow.SmallInstance(eblow.OneD, 30, 2, 9), Solver: "greedy"})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, s.ID, 30*time.Second)

	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/stats: %d", resp.StatusCode)
	}
	var got struct {
		Workers    int `json:"workers"`
		QueueDepth int `json:"queueDepth"`
		Jobs       struct {
			Done  int `json:"done"`
			Total int `json:"total"`
		} `json:"jobs"`
		Batch struct {
			Enabled   bool `json:"enabled"`
			Cohorts   *int `json:"cohorts"`
			Overtakes *int `json:"overtakes"`
		} `json:"batch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Workers != 2 {
		t.Errorf("workers = %d, want 2", got.Workers)
	}
	if got.Jobs.Done != 1 || got.Jobs.Total != 1 {
		t.Errorf("jobs = %+v, want 1 done of 1", got.Jobs)
	}
	if !got.Batch.Enabled {
		t.Error("batch.enabled = false, want true")
	}
	// cohorts stays on the wire, always 0, for readers of the old schema.
	if got.Batch.Cohorts == nil || *got.Batch.Cohorts != 0 || got.Batch.Overtakes == nil || *got.Batch.Overtakes != 0 {
		t.Errorf("batch counters cohorts=%v overtakes=%v, want both present and 0", got.Batch.Cohorts, got.Batch.Overtakes)
	}
}
