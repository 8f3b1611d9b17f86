package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"eblow"
)

func newTestServer(t *testing.T, workers int) (*Manager, *httptest.Server) {
	t.Helper()
	m := New(Config{Workers: workers})
	srv := httptest.NewServer(NewHandler(m))
	t.Cleanup(func() {
		srv.Close()
		m.Close()
	})
	return m, srv
}

func postJob(t *testing.T, srv *httptest.Server, body string) map[string]any {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit returned %d: %v", resp.StatusCode, out)
	}
	return out
}

func getJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// followEvents streams the job's NDJSON events to each until it returns
// true or the stream ends (right after the terminal event). It reports
// whether each stopped it.
func followEvents(t *testing.T, srv *httptest.Server, id string, within time.Duration, each func(Event) bool) bool {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), within)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/jobs/"+id+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if each(e) {
			return true
		}
	}
	return false
}

// pollDone waits on the job's event stream until it ends, then returns
// the job's terminal status document.
func pollDone(t *testing.T, srv *httptest.Server, id string, within time.Duration) map[string]any {
	t.Helper()
	followEvents(t, srv, id, within, func(Event) bool { return false })
	code, job := getJSON(t, srv.URL+"/v1/jobs/"+id)
	if code != http.StatusOK {
		t.Fatalf("GET job %s returned %d", id, code)
	}
	if state := job["state"].(string); !State(state).Terminal() {
		t.Fatalf("job %s still %s after %s", id, state, within)
	}
	return job
}

// The acceptance path: concurrent 1D and 2D submissions over HTTP share one
// pool and both complete feasibly.
func TestHTTPSubmitPollBenchmark(t *testing.T) {
	_, srv := newTestServer(t, 2)

	job1 := postJob(t, srv, `{"benchmark": "1T-1", "params": {"seed": 1}}`)
	job2 := postJob(t, srv, `{"benchmark": "2T-1", "params": {"seed": 1}}`)

	for _, job := range []map[string]any{job1, job2} {
		id := job["id"].(string)
		final := pollDone(t, srv, id, 2*time.Minute)
		if final["state"] != "done" {
			t.Fatalf("job %s: %v", id, final)
		}
		result := final["result"].(map[string]any)
		if result["feasible"] != true {
			t.Errorf("job %s result not feasible: %v", id, result)
		}
		if result["objective"].(float64) <= 0 {
			t.Errorf("job %s objective missing: %v", id, result)
		}
	}

	// The full result carries the stencil plan.
	id := job1["id"].(string)
	code, full := getJSON(t, srv.URL+"/v1/jobs/"+id+"/result")
	if code != http.StatusOK {
		t.Fatalf("result endpoint returned %d", code)
	}
	sol := full["result"].(map[string]any)["solution"].(map[string]any)
	if sol["writingTime"].(float64) <= 0 {
		t.Errorf("solution missing from full result: %v", sol)
	}
}

func TestHTTPInlineInstanceAndList(t *testing.T) {
	_, srv := newTestServer(t, 2)

	var buf bytes.Buffer
	if err := eblow.EncodeInstance(&buf, eblow.SmallInstance(eblow.TwoD, 25, 2, 3)); err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"instance": %s, "solver": "greedy"}`, buf.String())
	job := postJob(t, srv, body)
	id := job["id"].(string)
	if final := pollDone(t, srv, id, time.Minute); final["state"] != "done" {
		t.Fatalf("inline instance job: %v", final)
	}

	resp, err := http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0]["id"] != id {
		t.Errorf("job list %v, want the one submitted job", list)
	}
}

func TestHTTPEventsStream(t *testing.T) {
	_, srv := newTestServer(t, 1)

	job := postJob(t, srv, `{"benchmark": "1T-1", "solver": "greedy"}`)
	id := job["id"].(string)

	resp, err := http.Get(srv.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events content type %q", ct)
	}
	var states []string
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		var e Event
		if err := json.Unmarshal(scanner.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", scanner.Text(), err)
		}
		states = append(states, string(e.State))
	}
	if len(states) < 3 || states[0] != "queued" || states[len(states)-1] != "done" {
		t.Errorf("event states %v, want queued ... done", states)
	}
}

func TestHTTPCancel(t *testing.T) {
	_, srv := newTestServer(t, 1)

	var buf bytes.Buffer
	if err := eblow.EncodeInstance(&buf, eblow.SmallInstance(eblow.OneD, 60, 3, 7)); err != nil {
		t.Fatal(err)
	}
	job := postJob(t, srv, fmt.Sprintf(`{"instance": %s, "solver": "exact"}`, buf.String()))
	id := job["id"].(string)

	// Wait on the job's event stream until it starts running; the result
	// endpoint refuses before the job is terminal.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	events, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/jobs/"+id+"/events", nil)
	stream, err := http.DefaultClient.Do(events)
	if err != nil {
		t.Fatal(err)
	}
	started := false
	for sc := bufio.NewScanner(stream.Body); !started && sc.Scan(); {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		started = e.State == StateRunning
	}
	stream.Body.Close()
	if !started {
		t.Fatal("job never started")
	}
	if code, _ := getJSON(t, srv.URL+"/v1/jobs/"+id+"/result"); code != http.StatusConflict {
		t.Errorf("result of a running job returned %d, want 409", code)
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE returned %d", resp.StatusCode)
	}
	final := pollDone(t, srv, id, time.Minute)
	if final["state"] != "canceled" {
		t.Errorf("cancelled job state %v", final["state"])
	}
}

func TestHTTPBadRequests(t *testing.T) {
	_, srv := newTestServer(t, 1)

	for _, body := range []string{
		`{}`,
		`{"benchmark": "bogus-1"}`,
		`{"benchmark": "1T-1", "instance": {"name": "x"}}`,
		`{"benchmark": "1T-1", "solver": "nope"}`,
		`{"benchmark": "1T-1", "params": {"deadline": "not-a-duration"}}`,
		`{"benchmark": "1T-1", "unknown_field": 1}`,
	} {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s returned %d, want 400", body, resp.StatusCode)
		}
	}
	if code, _ := getJSON(t, srv.URL+"/v1/jobs/none"); code != http.StatusNotFound {
		t.Errorf("unknown job returned %d", code)
	}
}

// Nonsense solver parameters must fail at decode time with a 400 that names
// the offending field, not queue a doomed job.
func TestHTTPParamValidation(t *testing.T) {
	_, srv := newTestServer(t, 1)

	cases := []struct {
		body  string
		field string
	}{
		{`{"benchmark": "1T-1", "params": {"workers": -1}}`, "params.workers"},
		{`{"benchmark": "1T-1", "params": {"restarts": -3}}`, "params.restarts"},
		{`{"benchmark": "1T-1", "params": {"seed": -7}}`, "params.seed"},
		{`{"benchmark": "1T-1", "params": {"seed": 9223372036854775807}}`, "params.seed"},
		{`{"benchmark": "1T-1", "params": {"deadline": "-5s"}}`, "params.deadline"},
		{`{"benchmark": "1T-1", "params": {"deadline": "0s"}}`, "params.deadline"},
	}
	for _, tc := range cases {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s returned %d, want 400", tc.body, resp.StatusCode)
			continue
		}
		if msg, _ := out["error"].(string); !strings.Contains(msg, tc.field) {
			t.Errorf("body %s: error %q does not name %s", tc.body, msg, tc.field)
		}
	}
}

// Regression: rendering a terminal job whose Result carries a nil Solution
// (a strategy that returns a bare summary when cancelled) must not panic the
// handler — it used to dereference Result.Solution unconditionally.
func TestHTTPNilSolutionResult(t *testing.T) {
	orig := solveSpec
	defer func() { solveSpec = orig }()
	started := make(chan struct{}, 1)
	solveSpec = func(ctx context.Context, spec JobSpec) (*eblow.Result, error) {
		started <- struct{}{}
		<-ctx.Done()
		// Best-so-far bookkeeping without a plan: Solution stays nil.
		return &eblow.Result{Strategy: "stub", Objective: 0, Feasible: false}, nil
	}
	_, srv := newTestServer(t, 1)

	job := postJob(t, srv, `{"benchmark": "1T-1", "solver": "greedy"}`)
	id := job["id"].(string)
	<-started
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	final := pollDone(t, srv, id, 30*time.Second)
	if final["state"] != "canceled" {
		t.Fatalf("stubbed job state %v", final["state"])
	}
	result, ok := final["result"].(map[string]any)
	if !ok {
		t.Fatalf("cancelled job dropped its partial result: %v", final)
	}
	if _, has := result["selected"]; has {
		t.Errorf("nil-Solution result reports a selection count: %v", result)
	}
	// The full-result endpoint renders the same record without panicking.
	if code, _ := getJSON(t, srv.URL+"/v1/jobs/"+id+"/result"); code != http.StatusOK {
		t.Errorf("full result of a nil-Solution job returned %d", code)
	}
}

func TestHTTPSolversList(t *testing.T) {
	_, srv := newTestServer(t, 1)
	resp, err := http.Get(srv.URL + "/v1/solvers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, info := range infos {
		names[info["name"].(string)] = true
	}
	for _, want := range []string{"eblow", "greedy", "exact", "portfolio"} {
		if !names[want] {
			t.Errorf("solver %q missing from listing %v", want, infos)
		}
	}
}

// A full pending queue must surface as 429 Too Many Requests on the wire.
func TestHTTPQueueFull429(t *testing.T) {
	m := New(Config{Workers: 1, MaxPending: 1})
	srv := httptest.NewServer(NewHandler(m))
	t.Cleanup(func() {
		srv.Close()
		m.Close()
	})

	// Occupy the single worker with an exact solve that runs far longer
	// than the test; only once it is running (and out of the pending queue)
	// fill the one pending slot.
	runningID := postJob(t, srv, `{"benchmark": "1T-5", "solver": "exact", "params": {"deadline": "5m"}}`)["id"].(string)
	if !followEvents(t, srv, runningID, 30*time.Second, func(e Event) bool { return e.State == StateRunning }) {
		t.Fatalf("job %s never started running", runningID)
	}
	fillID := postJob(t, srv, `{"benchmark": "1D-1", "solver": "greedy"}`)["id"].(string)

	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"benchmark": "1D-1", "solver": "greedy"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue returned %d (%v), want 429", resp.StatusCode, out)
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "full") {
		t.Errorf("429 body does not explain the full queue: %v", out)
	}

	// Draining the queue re-opens the door.
	reqDel, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+fillID, nil)
	if delResp, err := http.DefaultClient.Do(reqDel); err != nil {
		t.Fatal(err)
	} else {
		delResp.Body.Close()
	}
	postJob(t, srv, `{"benchmark": "1D-1", "solver": "greedy"}`)
}
