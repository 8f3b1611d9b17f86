package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"eblow"
)

// mustJSON encodes v the way the handler and the WAL do, without the
// trailing newline.
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// renderRecord returns what the job's record renders: its status document,
// its result document and its terminal WAL record.
func renderRecord(t *testing.T, m *Manager, id string) (status, result, wal []byte) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[id]
	s := m.statusLocked(j)
	return mustJSON(t, jobJSON(s, false)), mustJSON(t, jobJSON(s, true)), mustJSON(t, m.walTerminal(j))
}

// checkNoInstance fails unless the terminal job holds nothing of its
// instance, and unless putting the instance back, as terminal records kept
// it before, changes no byte of what the record renders.
func checkNoInstance(t *testing.T, m *Manager, id string, spec JobSpec) {
	t.Helper()
	m.mu.Lock()
	j := m.jobs[id]
	state, held := j.state, j.spec.Instance != nil || j.spec.checked != nil || j.spec.instJSON != nil
	m.mu.Unlock()
	if !state.Terminal() || held {
		t.Errorf("job %s (%s): terminal %v, holds instance %v", id, spec.Label, state.Terminal(), held)
	}
	status, result, wal := renderRecord(t, m, id)
	m.mu.Lock()
	j.spec.Instance, j.spec.checked = spec.Instance, spec.checked
	m.mu.Unlock()
	kStatus, kResult, kWAL := renderRecord(t, m, id)
	m.mu.Lock()
	j.spec.Instance, j.spec.checked = nil, nil
	m.mu.Unlock()
	if !bytes.Equal(status, kStatus) || !bytes.Equal(result, kResult) || !bytes.Equal(wal, kWAL) {
		t.Errorf("job %s (%s) renders differently without its instance:\nstatus %s\n  kept %s\nresult %s\n  kept %s\nwal %s\n  kept %s",
			id, spec.Label, status, kStatus, result, kResult, wal, kWAL)
	}
}

// Every terminal transition drops the job's instance: done, failed,
// deadline-expired, cancelled while running, cancelled while queued and
// interrupted by Close. The record renders the same status, result and WAL
// documents as one that kept the instance, its compacted terminal record
// is that WAL document byte for byte, and a restarted manager replays it
// with the same identity and outcome.
func TestTerminalRecordsHoldNoInstance(t *testing.T) {
	orig := solveSpec
	defer func() { solveSpec = orig }()
	started := make(chan string, 1)
	release := make(chan struct{})
	solveSpec = func(ctx context.Context, spec JobSpec) (*eblow.Result, error) {
		switch spec.Label {
		case "done": // holds the worker so a job can be cancelled in the queue
			started <- spec.Label
			<-release
		case "failed":
			return nil, errors.New("solver exploded")
		case "deadline": // a best-so-far incumbent with the expired deadline
			res, err := orig(ctx, spec)
			if err != nil {
				return nil, err
			}
			return res, context.DeadlineExceeded
		case "cancelled-running", "interrupted": // an incumbent, then cut off
			res, err := orig(ctx, spec)
			if err != nil {
				return nil, err
			}
			started <- spec.Label
			<-ctx.Done()
			return res, ctx.Err()
		}
		return orig(ctx, spec)
	}
	var inst bytes.Buffer
	if err := eblow.EncodeInstance(&inst, eblow.SmallInstance(eblow.OneD, 30, 2, 4)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "jobs.wal")
	w, err := OpenWAL(path, 2048) // tiny threshold: every finish compacts
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{Workers: 1, WAL: w})
	specs := make(map[string]JobSpec)
	var ids []string
	submit := func(label string) string {
		t.Helper()
		spec, err := ParseSubmit([]byte(`{"instance": ` + inst.String() + `, "solver": "greedy", "label": "` + label + `", "params": {"seed": 3}}`))
		if err != nil {
			t.Fatal(err)
		}
		s, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		specs[s.ID] = spec
		ids = append(ids, s.ID)
		return s.ID
	}
	cancel := func(id string) {
		t.Helper()
		if _, err := m.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}

	done := submit("done")
	<-started
	cancel(submit("cancelled-queued"))
	close(release)
	waitTerminal(t, m, done, 30*time.Second)
	waitTerminal(t, m, submit("failed"), 30*time.Second)
	waitTerminal(t, m, submit("deadline"), 30*time.Second)
	running := submit("cancelled-running")
	<-started
	cancel(running)
	waitTerminal(t, m, running, 30*time.Second)
	interrupted := submit("interrupted")
	<-started
	want := []State{StateDone, StateCanceled, StateFailed, StateFailed, StateCanceled}
	live := make(map[string]JobStatus)
	walDocs := make(map[string][]byte)
	for i, id := range ids[:len(want)] {
		s, err := m.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if s.State != want[i] {
			t.Errorf("job %s (%s) is %s, want %s", id, s.Label, s.State, want[i])
		}
		checkNoInstance(t, m, id, specs[id])
		live[id] = s
		_, _, walDocs[id] = renderRecord(t, m, id)
	}
	m.Close()
	if s := waitTerminal(t, m, interrupted, 30*time.Second); s.State != StateCanceled {
		t.Errorf("interrupted job is %s", s.State)
	}
	checkNoInstance(t, m, interrupted, specs[interrupted])

	// The last finish compacted the log to one terminal record per finished
	// job; the interrupted job's accepted and started records follow it.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	terminals := make(map[string][]byte)
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	for _, line := range lines {
		var rec walRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("WAL line %q: %v", line, err)
		}
		if rec.Op == walOpTerminal {
			if terminals[rec.Job] != nil {
				t.Errorf("job %s has two terminal records: the log was not compacted", rec.Job)
			}
			terminals[rec.Job] = line
		}
	}
	if len(lines) != len(want)+2 {
		t.Errorf("the log holds %d records, want %d terminal plus the interrupted job's 2", len(lines), len(want))
	}
	for id, doc := range walDocs {
		if !bytes.Equal(terminals[id], doc) {
			t.Errorf("job %s: compacted record\n%s\nwant\n%s", id, terminals[id], doc)
		}
	}

	solveSpec = orig
	m2 := New(Config{Workers: 1, WAL: openTestWAL(t, path)})
	defer m2.Close()
	for id, was := range live {
		got, err := m2.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Replayed || got.Label != was.Label || got.Solver != was.Solver || got.Instance != was.Instance ||
			got.Kind != was.Kind || got.State != was.State || got.Digest != was.Digest || fmt.Sprint(got.Err) != fmt.Sprint(was.Err) {
			t.Errorf("job %s replayed as %+v, was %+v", id, got, was)
		}
		if (got.Result == nil) != (was.Result == nil) ||
			got.Result != nil && (got.Result.Strategy != was.Result.Strategy || got.Result.Objective != was.Result.Objective) {
			t.Errorf("job %s replayed result %+v, was %+v", id, got.Result, was.Result)
		}
	}
	if s := waitTerminal(t, m2, interrupted, 30*time.Second); s.State != StateDone || s.Replayed {
		t.Errorf("interrupted job re-ran as %s (replayed=%v, %v)", s.State, s.Replayed, s.Err)
	}
	checkNoInstance(t, m2, interrupted, specs[interrupted])
}

// heapAfterGC returns the live heap after full collections: the second
// one frees what the first only moved to the sync.Pool victim caches.
func heapAfterGC() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// A finished job's record costs a few KB, not its instance: 64 finished
// plan1d-shaped jobs (600 characters, 10 regions, ~145 KB decoded) grow the
// live heap by under 16 KB each. The solve is a stub with a plan-less
// result: the plan a real solve returns (~30 KB for eblow on this
// instance) is kept on purpose, for GET /v1/jobs/{id}/result, and the
// bound is on everything else the record holds.
func TestFinishedJobsRetainLittleHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory skews HeapAlloc")
	}
	orig := solveSpec
	defer func() { solveSpec = orig }()
	solveSpec = func(context.Context, JobSpec) (*eblow.Result, error) {
		return &eblow.Result{Strategy: "stub", Objective: 1, Feasible: true}, nil
	}
	const jobs, perJobLimit = 64, 16 << 10
	body := plan1dBody(t, false)
	m := New(Config{Workers: 1})
	defer m.Close()
	run := func(n int) {
		ids := make([]string, n)
		for i := range ids {
			doc, err := m.WireSubmit(context.Background(), body)
			if err != nil {
				t.Fatal(err)
			}
			ids[i] = doc.(map[string]any)["id"].(string)
		}
		for _, id := range ids {
			if s := waitTerminal(t, m, id, time.Minute); s.State != StateDone {
				t.Fatalf("job %s: %s %v", id, s.State, s.Err)
			}
		}
	}
	run(1) // warm up, so state built on first use is not billed to the jobs
	before := heapAfterGC()
	run(jobs)
	perJob := (heapAfterGC() - before) / jobs
	runtime.KeepAlive(body) // live at both measurements, like the manager
	if perJob >= perJobLimit {
		t.Errorf("each finished job retains %d bytes, want under %d", perJob, perJobLimit)
	}
	t.Logf("each finished plan1d-shaped job retains %d bytes", perJob)
	if got := len(m.List()); got != jobs+1 {
		t.Fatalf("%d records, want %d", got, jobs+1)
	}
}

// fill is an endless reader of one byte value.
type fill byte

func (f fill) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(f)
	}
	return len(p), nil
}

// POST /v1/jobs accepts a body of declared length and a chunked one alike;
// a declared length over the cap still reads up to the cap and answers
// 413, and a body cut short of its declared length answers 400, each with
// a JSON error.
func TestSubmitBodyRead(t *testing.T) {
	m := New(Config{Workers: 1})
	defer m.Close()
	h := NewHandler(m)
	body := plan1dBody(t, false)
	post := func(r io.Reader, n int64) (int, map[string]any) {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", r)
		req.ContentLength = n
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var doc map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatalf("HTTP %d with a non-JSON body %q", rec.Code, rec.Body.Bytes())
		}
		return rec.Code, doc
	}
	for _, c := range []struct {
		name string
		r    io.Reader
		n    int64
	}{
		{"exact length", bytes.NewReader(body), int64(len(body))},
		{"chunked", struct{ io.Reader }{bytes.NewReader(body)}, -1},
	} {
		code, doc := post(c.r, c.n)
		if code != http.StatusAccepted || doc["label"] != "plan1d/0" || doc["instance"] != "plan1d-0" {
			t.Errorf("%s: HTTP %d %v", c.name, code, doc)
		}
	}
	over := int64(maxSubmitBytes + 1)
	if code, doc := post(io.LimitReader(fill(' '), over), over); code != http.StatusRequestEntityTooLarge || doc["error"] == nil {
		t.Errorf("over the cap: HTTP %d %v, want 413", code, doc)
	}

	// A client that hangs up halfway through its declared length.
	srv := httptest.NewServer(h)
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/jobs HTTP/1.1\r\nHost: eblowd\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		len(body), body[:len(body)/2])
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil || resp.StatusCode != http.StatusBadRequest || doc["error"] == nil {
		t.Errorf("truncated body: HTTP %d %v (%v), want 400 with a JSON error", resp.StatusCode, doc, err)
	}
	if n := len(m.List()); n != 2 {
		t.Errorf("%d jobs queued, want the 2 accepted ones", n)
	}
}
