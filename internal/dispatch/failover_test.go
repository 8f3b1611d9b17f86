package dispatch

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"eblow"
	"eblow/internal/service"
)

// fleetNode is one in-process backend: a real service.Manager behind a
// real HTTP server, so the dispatcher is exercised over the actual wire
// protocol.
type fleetNode struct {
	name string
	m    *service.Manager
	srv  *httptest.Server
	dead bool
}

// kill tears the node down hard: the HTTP listener first (the dispatcher
// sees connection errors, exactly like a kill -9), then the manager.
func (n *fleetNode) kill() {
	if n.dead {
		return
	}
	n.dead = true
	n.srv.CloseClientConnections()
	n.srv.Close()
	n.m.Close()
}

func newFleet(t *testing.T, n, workers int) ([]*fleetNode, []NodeConfig) {
	t.Helper()
	nodes := make([]*fleetNode, n)
	cfgs := make([]NodeConfig, n)
	for i := range nodes {
		m := service.New(service.Config{Workers: workers})
		srv := httptest.NewServer(service.NewHandler(m))
		nodes[i] = &fleetNode{name: fmt.Sprintf("n%d", i+1), m: m, srv: srv}
		cfgs[i] = NodeConfig{Name: nodes[i].name, URL: srv.URL}
	}
	t.Cleanup(func() {
		for _, fn := range nodes {
			fn.kill()
		}
	})
	return nodes, cfgs
}

// submitBody builds a POST /v1/jobs body for a small deterministic
// instance. The routing key is a coarse shape key, kept byte-stable for the
// dispatcher WAL and for co-location, so jobs built from the same geometry
// always share it and land on one node.
func submitBody(t *testing.T, kind eblow.Kind, chars int, instSeed int64, solver, label string) []byte {
	t.Helper()
	in := eblow.SmallInstance(kind, chars, 2, instSeed)
	var instJSON bytes.Buffer
	if err := eblow.EncodeInstance(&instJSON, in); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{
		"instance": json.RawMessage(instJSON.Bytes()),
		"solver":   solver,
		"label":    label,
		"params":   map[string]any{"seed": 1, "workers": 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// referenceDigests runs the same specs through one plain single-node
// manager and returns digest per label — the ground truth the fleet (and
// the failed-over fleet) must reproduce bit for bit.
func referenceDigests(t *testing.T, bodies [][]byte) map[string]string {
	t.Helper()
	m := service.New(service.Config{Workers: 1})
	defer m.Close()
	out := make(map[string]string, len(bodies))
	ids := make(map[string]string, len(bodies))
	for _, body := range bodies {
		spec, err := service.ParseSubmit(body)
		if err != nil {
			t.Fatal(err)
		}
		s, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids[s.Label] = s.ID
	}
	for label, id := range ids {
		s := waitManagerTerminal(t, m, id, 60*time.Second)
		if s.State != service.StateDone {
			t.Fatalf("reference job %s finished %s: %v", label, s.State, s.Err)
		}
		if s.Digest == "" {
			t.Fatalf("reference job %s has no digest", label)
		}
		out[label] = s.Digest
	}
	return out
}

// waitManagerTerminal follows the job's event stream, which ends right
// after its terminal event, and returns the final status.
func waitManagerTerminal(t *testing.T, m *service.Manager, id string, within time.Duration) service.JobStatus {
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
		t.Fatalf("job %s still %s after %v", id, s.State, within)
	}
	return s
}

// waitDispatchTerminal follows the job's proxied event stream, which ends
// after exactly one terminal state (re-attaching across failover), and
// returns the job's public document.
func waitDispatchTerminal(t *testing.T, d *Dispatcher, id string, within time.Duration) map[string]any {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), within)
	defer cancel()
	if err := d.StreamEvents(ctx, id, io.Discard, nil); err != nil {
		t.Fatal(err)
	}
	doc, err := d.Status(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if state, _, _ := jobDocFields(doc); !service.State(state).Terminal() {
		t.Fatalf("job %s still %q after %v", id, state, within)
	}
	return doc
}

func docDigest(doc map[string]any) string {
	_, digest, _ := jobDocFields(doc)
	return digest
}

// TestDispatchShardsAndAggregates is the happy-path e2e: a 3-node fleet
// behind the dispatcher's public API. Jobs of the same shape must share a
// node, every digest must match the single-node reference, the event
// stream must carry public IDs to a terminal event, and the stats
// aggregation must see the whole fleet.
func TestDispatchShardsAndAggregates(t *testing.T) {
	_, cfgs := newFleet(t, 3, 1)
	d, err := New(Config{Nodes: cfgs, HealthInterval: 25 * time.Millisecond, FailAfter: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	front := httptest.NewServer(NewHandler(d))
	defer front.Close()

	// Three distinct geometries → up to three routing keys; several jobs
	// per geometry → co-location is observable. Solvers are picked per
	// kind: sa24 is 2D-only, greedy handles 1D.
	var bodies [][]byte
	geoms := []struct {
		kind   eblow.Kind
		chars  int
		solver string
	}{{eblow.OneD, 30, "greedy"}, {eblow.TwoD, 20, "sa24"}, {eblow.OneD, 120, "greedy"}}
	for gi, g := range geoms {
		for k := 0; k < 2; k++ {
			label := fmt.Sprintf("g%d-%d", gi, k)
			bodies = append(bodies, submitBody(t, g.kind, g.chars, int64(100+10*gi+k), g.solver, label))
		}
	}
	want := referenceDigests(t, bodies)

	idByLabel := make(map[string]string)
	for _, body := range bodies {
		resp, err := http.Post(front.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d: %v", resp.StatusCode, doc)
		}
		idByLabel[doc["label"].(string)] = doc["id"].(string)
	}

	nodeByLabel := make(map[string]string)
	for label, id := range idByLabel {
		doc := waitDispatchTerminal(t, d, id, 60*time.Second)
		state, digest, _ := jobDocFields(doc)
		if state != string(service.StateDone) {
			t.Fatalf("job %s finished %q: %v", label, state, doc["error"])
		}
		if digest != want[label] {
			t.Errorf("job %s digest %q, want reference %q", label, digest, want[label])
		}
		node, _ := doc["node"].(string)
		if node == "" {
			t.Fatalf("job %s has no node: %v", label, doc)
		}
		nodeByLabel[label] = node
	}
	// Same geometry → same routing key → same node.
	for gi := range geoms {
		a, b := nodeByLabel[fmt.Sprintf("g%d-0", gi)], nodeByLabel[fmt.Sprintf("g%d-1", gi)]
		if a != b {
			t.Errorf("geometry %d split across nodes %s and %s; same shape must co-locate", gi, a, b)
		}
	}

	// Event stream: public IDs, ends with a terminal state.
	someLabel := "g0-0"
	resp, err := http.Get(front.URL + "/v1/jobs/" + idByLabel[someLabel] + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var last map[string]any
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("event stream line %q: %v", sc.Text(), err)
		}
		if ev["job"] != idByLabel[someLabel] {
			t.Fatalf("event carries job %v, want public id %s", ev["job"], idByLabel[someLabel])
		}
		last = ev
	}
	if last == nil || !service.State(last["state"].(string)).Terminal() {
		t.Fatalf("event stream ended without a terminal event: %v", last)
	}

	// Fleet stats: the sums must account for every job on every node.
	fs := d.Stats(context.Background())
	if len(fs.Nodes) != 3 {
		t.Fatalf("Stats lists %d nodes, want 3", len(fs.Nodes))
	}
	for _, ns := range fs.Nodes {
		if !ns.Healthy {
			t.Errorf("node %s unhealthy in stats: %s", ns.Name, ns.Error)
		}
	}
	if fs.Fleet.Jobs.Done != len(bodies) {
		t.Errorf("fleet Done = %d, want %d", fs.Fleet.Jobs.Done, len(bodies))
	}
	if fs.Dispatcher.Jobs.Total != len(bodies) || fs.Dispatcher.Jobs.Done != len(bodies) {
		t.Errorf("dispatcher table = %+v, want %d done", fs.Dispatcher.Jobs, len(bodies))
	}

}

// TestDispatchFailover is the satellite e2e: 3 nodes, one killed mid-queue,
// every job must still reach a terminal state with a digest bit-identical
// to an uninterrupted single-node run.
func TestDispatchFailover(t *testing.T) {
	nodes, cfgs := newFleet(t, 3, 1)
	wal, err := OpenWAL(filepath.Join(t.TempDir(), "dispatch.wal"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{
		Nodes:          cfgs,
		HealthInterval: 20 * time.Millisecond,
		FailAfter:      2,
		WAL:            wal,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// One geometry → one routing key → every job on one node, queued
	// behind each other on its single worker. chars 140 makes each solve
	// slow enough that the queue is still deep when the node dies.
	const jobs = 6
	var bodies [][]byte
	for k := 0; k < jobs; k++ {
		bodies = append(bodies, submitBody(t, eblow.TwoD, 140, int64(200+k), "sa24", fmt.Sprintf("f-%d", k)))
	}
	want := referenceDigests(t, bodies)

	idByLabel := make(map[string]string, jobs)
	for _, body := range bodies {
		doc, err := d.Submit(body)
		if err != nil {
			t.Fatal(err)
		}
		idByLabel[doc["label"].(string)] = doc["id"].(string)
	}

	// Find the owner once the first job is assigned, then kill it right
	// away: the dispatcher's table has not yet synced results for most of
	// the queue, so the dead node's accepted-but-not-terminal jobs must be
	// re-dispatched to survivors — the failover path under test.
	var owner string
	firstID := idByLabel["f-0"]
	deadline := time.Now().Add(10 * time.Second)
	for owner == "" {
		if node, ok := d.Owner(firstID); ok && node != "" {
			owner = node
		}
		if time.Now().After(deadline) {
			t.Fatal("job f-0 never got a node")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, fn := range nodes {
		if fn.name == owner {
			fn.kill()
		}
	}

	// Every job must still finish — the survivors take over the dead
	// node's accepted-but-not-terminal queue from the dispatcher's WAL —
	// and every digest must equal the single-node reference.
	for label, id := range idByLabel {
		doc := waitDispatchTerminal(t, d, id, 120*time.Second)
		state, digest, _ := jobDocFields(doc)
		if state != string(service.StateDone) {
			t.Fatalf("job %s finished %q after failover: %v", label, state, doc["error"])
		}
		if digest != want[label] {
			t.Errorf("job %s digest %q after failover, want reference %q", label, digest, want[label])
		}
	}

	if d.Healthy(owner) {
		t.Errorf("killed node %s still marked healthy", owner)
	}
	fs := d.Stats(context.Background())
	if fs.Dispatcher.AliveNodes != 2 {
		t.Errorf("AliveNodes = %d after killing one of three, want 2", fs.Dispatcher.AliveNodes)
	}
	if fs.Dispatcher.Jobs.Done != jobs {
		t.Errorf("dispatcher table Done = %d, want %d", fs.Dispatcher.Jobs.Done, jobs)
	}

	// At least one job must have re-homed onto a survivor. A job may
	// legitimately keep recording the dead node — that means it went
	// terminal there before the kill — but then it must be done, with its
	// digest already checked above.
	rehomed := 0
	for label, id := range idByLabel {
		node, ok := d.Owner(id)
		if !ok || node == "" {
			t.Errorf("job %s has no owner after failover", label)
			continue
		}
		if node != owner {
			rehomed++
		}
	}
	if rehomed == 0 {
		t.Error("no job re-homed to a survivor; the kill landed after the whole queue drained")
	}
}

// TestDispatchWALRestartRestoresTable pins the dispatcher's own crash
// story: a new dispatcher over the same WAL serves the finished jobs as
// digest-only records and keeps allocating fresh public IDs.
func TestDispatchWALRestartRestoresTable(t *testing.T) {
	_, cfgs := newFleet(t, 2, 1)
	walPath := filepath.Join(t.TempDir(), "dispatch.wal")
	wal, err := OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{Nodes: cfgs, HealthInterval: 25 * time.Millisecond, FailAfter: 3, WAL: wal})
	if err != nil {
		t.Fatal(err)
	}
	body := submitBody(t, eblow.OneD, 30, 301, "greedy", "restart-0")
	doc, err := d.Submit(body)
	if err != nil {
		t.Fatal(err)
	}
	id := doc["id"].(string)
	finished := waitDispatchTerminal(t, d, id, 60*time.Second)
	wantDigest := docDigest(finished)
	if wantDigest == "" {
		t.Fatal("finished job has no digest")
	}
	if jobBody(d, id) != nil {
		t.Error("the finished job still holds its request body")
	}
	d.Close()

	wal2, err := OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := New(Config{Nodes: cfgs, HealthInterval: 25 * time.Millisecond, FailAfter: 3, WAL: wal2})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if s := wal2.Stats(); s.Terminal != 1 {
		t.Fatalf("replay stats = %+v, want 1 terminal record", s)
	}
	got, err := d2.Status(context.Background(), id)
	if err != nil {
		t.Fatalf("restored job %s: %v", id, err)
	}
	state, digest, _ := jobDocFields(got)
	if state != string(service.StateDone) || digest != wantDigest {
		t.Fatalf("restored job = (%q, %q), want (done, %q)", state, digest, wantDigest)
	}
	if got["replayed"] != true {
		t.Errorf("restored job not marked replayed: %v", got)
	}
	if jobBody(d2, id) != nil {
		t.Error("the replayed terminal job holds its request body")
	}
	// The result endpoint still answers: proxied in full while the
	// backend retains the record, from the dispatcher's digest-only
	// snapshot once it doesn't.
	res, code, err := d2.Result(context.Background(), id)
	if err != nil || code != http.StatusOK {
		t.Fatalf("Result after restart = %d, %v", code, err)
	}
	if docDigest(res) != wantDigest {
		t.Fatalf("Result digest %q, want %q", docDigest(res), wantDigest)
	}

	// Fresh submissions must not collide with replayed IDs.
	doc2, err := d2.Submit(submitBody(t, eblow.OneD, 30, 302, "greedy", "restart-1"))
	if err != nil {
		t.Fatal(err)
	}
	if doc2["id"].(string) == id {
		t.Fatalf("public ID %s reused after restart", id)
	}
}

// jobBody returns the request body the dispatcher keeps for the job.
func jobBody(d *Dispatcher, id string) []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.jobs[id].body
}

// A job keeps its request body, to post it again on failover, only until it
// is terminal: a cancelled job drops it, and a restarted dispatcher
// restores it for the unfinished job alone.
func TestDispatchBodyKeptUntilTerminal(t *testing.T) {
	nodes, cfgs := newFleet(t, 1, 1)
	nodes[0].kill() // nothing can be assigned: both jobs wait for a node
	walPath := filepath.Join(t.TempDir(), "dispatch.wal")
	open := func() *Dispatcher {
		t.Helper()
		wal, err := OpenWAL(walPath)
		if err != nil {
			t.Fatal(err)
		}
		d, err := New(Config{Nodes: cfgs, HealthInterval: 10 * time.Millisecond, FailAfter: 1, WAL: wal})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	body := submitBody(t, eblow.OneD, 30, 501, "greedy", "waiting")
	_, value, err := service.ParseSubmitBody(body)
	if err != nil {
		t.Fatal(err)
	}
	d := open()
	doc, err := d.Submit(body)
	if err != nil {
		t.Fatal(err)
	}
	waiting := doc["id"].(string)
	doc, err = d.Submit(submitBody(t, eblow.OneD, 30, 502, "greedy", "cancelled"))
	if err != nil {
		t.Fatal(err)
	}
	cancelled := doc["id"].(string)
	if _, err := d.Cancel(context.Background(), cancelled); err != nil {
		t.Fatal(err)
	}
	check := func(d *Dispatcher, when string) {
		t.Helper()
		if got := jobBody(d, waiting); !bytes.Equal(got, value) {
			t.Errorf("%s: the waiting job holds %d body bytes, want its %d-byte request", when, len(got), len(value))
		}
		if jobBody(d, cancelled) != nil {
			t.Errorf("%s: the cancelled job still holds its request body", when)
		}
	}
	check(d, "live")
	d.Close()
	d2 := open()
	defer d2.Close()
	check(d2, "replayed")
}

// TestDispatchRejectsBadSubmitsLocally pins that validation happens at the
// front door: a bad body never reaches a backend, burns a WAL record, or
// allocates a public ID.
func TestDispatchRejectsBadSubmitsLocally(t *testing.T) {
	_, cfgs := newFleet(t, 1, 1)
	d, err := New(Config{Nodes: cfgs, HealthInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	front := httptest.NewServer(NewHandler(d))
	defer front.Close()

	for _, body := range []string{
		`{"benchmark":"no-such-benchmark"}`,
		`{"benchmark":"1T-1","instance":{}}`,
		`{"benchmark":"1T-1","params":{"seed":-1}}`,
		`not json`,
	} {
		resp, err := http.Post(front.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: HTTP %d, want 400", body, resp.StatusCode)
		}
	}
	if got := len(d.List()); got != 0 {
		t.Fatalf("rejected submissions left %d jobs in the table", got)
	}
	if _, err := d.Status(context.Background(), "j1"); err == nil {
		t.Fatal("no job should exist after rejected submissions")
	}
}

// TestDispatchCancelUnassigned covers cancelling a job that is waiting for
// a node: it must go terminal locally and stream exactly one synthesized
// terminal event.
func TestDispatchCancelUnassigned(t *testing.T) {
	nodes, cfgs := newFleet(t, 1, 1)
	nodes[0].kill() // fleet of one, already dead: nothing can be assigned
	d, err := New(Config{Nodes: cfgs, HealthInterval: 10 * time.Millisecond, FailAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	doc, err := d.Submit(submitBody(t, eblow.OneD, 30, 401, "greedy", "orphan"))
	if err != nil {
		t.Fatal(err)
	}
	id := doc["id"].(string)
	state, _, _ := jobDocFields(doc)
	if state != string(service.StateQueued) {
		t.Fatalf("submitted job state %q, want queued (accepted without a node)", state)
	}

	got, err := d.Cancel(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	state, _, _ = jobDocFields(got)
	if state != string(service.StateCanceled) {
		t.Fatalf("cancelled job state %q", state)
	}

	var buf bytes.Buffer
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.StreamEvents(ctx, id, &buf, nil); err != nil {
		t.Fatal(err)
	}
	var ev map[string]any
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &ev); err != nil {
		t.Fatalf("synthesized event stream %q: %v", buf.String(), err)
	}
	if ev["job"] != id || ev["state"] != string(service.StateCanceled) || ev["synthesized"] != true {
		t.Fatalf("synthesized terminal event = %v", ev)
	}
}

// TestDispatchStaleProbeKeepsFreshJob pins the probe/dispatch race: a
// health probe whose job list the node rendered before a submit landed
// must not declare the freshly assigned job lost and dispatch it again.
// The node's list reply is held on a channel until the submit is done.
func TestDispatchStaleProbeKeepsFreshJob(t *testing.T) {
	m := service.New(service.Config{Workers: 1})
	defer m.Close()
	inner := service.NewHandler(m)
	listed := make(chan struct{}, 1)
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet || r.URL.Path != "/v1/jobs" {
			inner.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r) // the list is rendered now...
		select {
		case listed <- struct{}{}:
		default:
		}
		<-release // ...and delivered once the test lets it go
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	defer srv.Close()
	d, err := New(Config{Nodes: []NodeConfig{{Name: "n1", URL: srv.URL}}, HealthInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	<-listed // the first probe holds a list rendered before the job exists
	doc, err := d.Submit(submitBody(t, eblow.OneD, 30, 501, "greedy", "fresh"))
	close(release)
	if err != nil {
		t.Fatal(err)
	}
	if doc["node"] != "n1" {
		t.Fatalf("job not assigned by Submit: %v", doc)
	}
	<-listed // the second probe started, so the stale list has been folded in
	if got := len(m.List()); got != 1 {
		t.Fatalf("node holds %d copies of the job, want 1", got)
	}
}
