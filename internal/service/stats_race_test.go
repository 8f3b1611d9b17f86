package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"eblow"
)

// TestStatsUnderLoad hammers GET /v1/stats while jobs are being submitted,
// popped and finished. Run under -race it is the synchronization
// audit for the BatchStats counters (INVARIANTS.md documents the
// contract): every snapshot must be well-formed and internally consistent
// no matter when it lands relative to the scheduler's own mutations.
func TestStatsUnderLoad(t *testing.T) {
	m := New(Config{Workers: 2, Batch: BatchConfig{Enabled: true, MaxJump: 8}})
	defer m.Close()
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prev BatchStats
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(srv.URL + "/v1/stats")
				if err != nil {
					t.Error(err)
					return
				}
				var s Stats
				if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
					t.Errorf("stats decode: %v", err)
				}
				resp.Body.Close()
				if !s.Batch.Enabled {
					t.Error("batch scheduler reads disabled under load")
					return
				}
				// Counters only grow; a torn read could go backwards.
				if s.Batch.Overtakes < prev.Overtakes || s.Batch.AgedPops < prev.AgedPops {
					t.Errorf("stats went backwards: %+v after %+v", s.Batch, prev)
				}
				prev = s.Batch
				if s.Jobs.Total < 0 || s.QueueDepth < 0 {
					t.Errorf("negative counters: %+v", s)
				}
			}
		}()
	}

	ids := make([]string, 0, 24)
	for i := 0; i < 24; i++ {
		in := eblow.SmallInstance(eblow.OneD, 24+i%4, 2, int64(500+i))
		s, err := m.Submit(JobSpec{Instance: in, Solver: "greedy", Params: eblow.Params{Seed: 1, Workers: 1}, Label: fmt.Sprintf("load-%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, s.ID)
	}
	for _, id := range ids {
		if s := waitTerminal(t, m, id, 60*time.Second); s.State != StateDone {
			t.Fatalf("job %s finished %s: %v", id, s.State, s.Err)
		}
	}
	close(stop)
	wg.Wait()
}
