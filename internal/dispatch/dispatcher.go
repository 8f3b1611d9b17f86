package dispatch

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"eblow/internal/journal"
	"eblow/internal/service"
)

// NodeConfig names one backend solver node of the fleet.
type NodeConfig struct {
	// Name is the node's stable identity: it seeds the hash ring, appears
	// in job statuses and WAL records, and must stay the same across node
	// restarts (the URL may change; the name is what routing keys stick to).
	Name string
	// URL is the node's base HTTP address, e.g. "http://10.0.0.7:8080".
	URL string
}

// Config configures a Dispatcher.
type Config struct {
	// Nodes is the backend fleet (at least one, unique names).
	Nodes []NodeConfig
	// VNodes is the virtual-node count per backend on the hash ring
	// (<= 0 uses DefaultVNodes).
	VNodes int
	// HealthInterval is the per-node probe-and-sync period (<= 0 means
	// 1s). Each cycle fetches the node's job list, which doubles as the
	// health probe and the job-state sync.
	HealthInterval time.Duration
	// FailAfter is how many consecutive failed probes mark a node dead and
	// trigger failover (<= 0 means 3). Probes back off exponentially while
	// a node stays unreachable, and a dead node that answers again rejoins
	// the ring.
	FailAfter int
	// WAL is the dispatcher's durable log of accepted submissions (see
	// OpenWAL); nil disables durability. The dispatcher owns it from here
	// on: New replays it, Submit flushes the accepted spec to disk before
	// the ack (group commit), and Close closes it.
	WAL *WAL
	// Transport overrides the HTTP transport used for backend calls (nil
	// uses http.DefaultTransport). Tests inject httptest transports here.
	Transport http.RoundTripper
	// Logf receives operational log lines (node death, failover, rejoin);
	// nil discards them.
	Logf func(format string, args ...any)
}

// wireError is a dispatch error with its own message that unwraps to the
// service sentinel picking its HTTP status in the shared /v1 handler.
type wireError struct {
	msg  string
	kind error
}

func (e *wireError) Error() string { return e.msg }
func (e *wireError) Unwrap() error { return e.kind }

// ErrNotFound is returned for an unknown public job ID (HTTP 404).
var ErrNotFound error = &wireError{"dispatch: no such job", service.ErrNotFound}

// ErrClosed is returned when submitting to a closed dispatcher (HTTP 503).
var ErrClosed error = &wireError{"dispatch: dispatcher is closed", service.ErrClosed}

// ErrNodeDown is returned when an operation needs the job's backend node
// and that node is currently unreachable (HTTP 502).
var ErrNodeDown error = &wireError{"dispatch: the job's node is unreachable", service.ErrUpstream}

// jobRecord is the dispatcher's record of one public job.
//
// The status field holds the job's last rendered public document. Status
// maps are immutable once stored: every update replaces the whole map, so
// a handler that snapshotted a reference under mu may marshal it after
// unlocking without racing the sync loops.
type jobRecord struct {
	id         string
	body       []byte // the submit body's JSON value, re-posted on failover; nil once terminal
	routingKey string
	name       string // instance name
	kind       string
	solver     string // solver label for synthesized statuses
	label      string
	submitted  time.Time

	// node is the owning backend ("" while waiting for one); mutated only
	// while holding the Dispatcher's mu, like every field below.
	node        string
	backendID   string
	assigned    uint64 // Dispatcher.assigns at the job's latest assignment
	state       string
	digest      string
	errMsg      string
	status      map[string]any
	terminal    bool // set only by terminateLocked (or replay), with the WAL record
	replayed    bool
	dispatching bool // a dispatch attempt is in flight; don't start another
}

// nodeState is the dispatcher's view of one backend. The client is
// stateless and safe for concurrent use; alive and fails are mutated only
// while holding the Dispatcher's mu.
type nodeState struct {
	name   string
	url    string
	client *nodeClient
	alive  bool
	fails  int
}

// Dispatcher shards jobs across the fleet and proxies the public API.
type Dispatcher struct {
	cfg Config

	mu sync.Mutex
	// guarded by mu — hash ring of the currently-alive nodes
	ring *Ring
	// guarded by mu
	nodes map[string]*nodeState
	// nodeOrder is the config order of the node names.
	// immutable after construction
	nodeOrder []string
	// guarded by mu
	jobs map[string]*jobRecord
	// guarded by mu — submission order of the keys of jobs
	order []string
	// guarded by mu
	nextID int
	// guarded by mu — node assignments made so far; stamps jobRecord.assigned
	assigns uint64
	// guarded by mu — first lifecycle-record append failure not yet logged
	walErr error
	// guarded by mu
	closed bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// New validates the fleet config, replays the WAL if one is given, and
// starts the per-node health/sync loops plus the re-dispatch janitor.
func New(cfg Config) (*Dispatcher, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("dispatch: a fleet needs at least one node")
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = time.Second
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = 3
	}
	d := &Dispatcher{
		cfg:   cfg,
		ring:  NewRing(cfg.VNodes),
		nodes: make(map[string]*nodeState),
		jobs:  make(map[string]*jobRecord),
		stop:  make(chan struct{}),
	}
	for _, nc := range cfg.Nodes {
		if nc.Name == "" || nc.URL == "" {
			return nil, fmt.Errorf("dispatch: node needs a name and a URL, got %q=%q", nc.Name, nc.URL)
		}
		if _, dup := d.nodes[nc.Name]; dup {
			return nil, fmt.Errorf("dispatch: duplicate node name %q", nc.Name)
		}
		d.nodes[nc.Name] = &nodeState{
			name:   nc.Name,
			url:    nc.URL,
			client: newNodeClient(nc.Name, nc.URL, cfg.Transport),
			alive:  true, // optimistic: the first failed probes evict it
		}
		d.nodeOrder = append(d.nodeOrder, nc.Name)
		d.ring.Add(nc.Name)
	}
	if cfg.WAL != nil {
		d.mu.Lock()
		d.replayWALLocked()
		d.mu.Unlock()
	}
	for _, name := range d.nodeOrder {
		d.wg.Add(1)
		go d.watchNode(name)
	}
	d.wg.Add(1)
	go d.janitor()
	return d, nil
}

// logf forwards to Config.Logf when set.
func (d *Dispatcher) logf(format string, args ...any) {
	if d.cfg.Logf != nil {
		d.cfg.Logf(format, args...)
	}
}

// Nodes returns the fleet's node names in config order.
func (d *Dispatcher) Nodes() []string { return append([]string(nil), d.nodeOrder...) }

// Owner reports which node currently owns the job ("" while unassigned).
func (d *Dispatcher) Owner(id string) (node string, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	j, found := d.jobs[id]
	if !found {
		return "", false
	}
	return j.node, true
}

// Submit accepts one public submission: the body is validated exactly as a
// backend would (service.ParseSubmitBody), the routing key is the instance's
// shape key (routingKey), the accepted spec is fsynced to the
// dispatcher WAL before the ack, and the job is dispatched to the ring
// owner. A submission with no reachable owner is still accepted — it waits
// unassigned and the janitor dispatches it as soon as a node can take it.
func (d *Dispatcher) Submit(body []byte) (map[string]any, error) {
	spec, value, err := service.ParseSubmitBody(body)
	if err != nil {
		return nil, err
	}
	key := routingKey(spec.Instance)
	// One copy of the request, shared by the job record (re-posted on
	// failover) and its accepted WAL record.
	body = append([]byte(nil), value...)

	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil, ErrClosed
	}
	d.nextID++
	j := &jobRecord{
		id:         fmt.Sprintf("j%d", d.nextID),
		body:       body,
		routingKey: key,
		name:       spec.Instance.Name,
		kind:       spec.Instance.Kind.String(),
		solver:     service.SolverLabel(spec),
		label:      spec.Label,
		submitted:  time.Now(),
		state:      string(service.StateQueued),
	}
	j.status = synthStatus(j)
	d.jobs[j.id] = j
	d.order = append(d.order, j.id)
	rec := walRecord{
		Op: walOpAccepted, Job: j.id, Time: j.submitted, RoutingKey: j.routingKey,
		Name: j.name, Kind: j.kind, Solver: spec.Solver, Label: j.label,
	}
	d.mu.Unlock()

	var walErr error
	if d.cfg.WAL != nil {
		var line journal.Line
		if line, walErr = journal.Splice(rec, "body", body); walErr == nil {
			if walErr = d.cfg.WAL.AppendEncoded(line); walErr == nil {
				walErr = d.cfg.WAL.Flush()
			}
		}
	}
	d.tryDispatch(j.id)
	_, snap, _, _ := d.route(j.id)
	if walErr != nil {
		// The job will run, but the ack must not promise durability it
		// cannot keep — same contract as the single-node service.
		return snap.status, fmt.Errorf("%w: job %s: %v", service.ErrNotDurable, j.id, walErr)
	}
	return snap.status, nil
}

// synthStatus renders a public status document from the dispatcher's own
// record — used while a job waits unassigned, after a replay, and as the
// fallback when the owning node cannot be asked.
func synthStatus(j *jobRecord) map[string]any {
	m := map[string]any{
		"id":        j.id,
		"solver":    j.solver,
		"instance":  j.name,
		"kind":      j.kind,
		"state":     j.state,
		"submitted": j.submitted,
	}
	if j.label != "" {
		m["label"] = j.label
	}
	if j.node != "" {
		m["node"] = j.node
	}
	if j.errMsg != "" {
		m["error"] = j.errMsg
	}
	if j.replayed {
		m["replayed"] = true
	}
	if j.digest != "" {
		m["result"] = map[string]any{"digest": j.digest}
	}
	return m
}

// tryDispatch posts the job to its ring owner if it is unassigned. Safe to
// call at any time; a job that is terminal, already assigned, mid-dispatch
// or without a reachable owner is left alone.
func (d *Dispatcher) tryDispatch(id string) {
	d.mu.Lock()
	j := d.jobs[id]
	if j == nil || j.terminal || j.node != "" || j.dispatching || d.closed {
		d.mu.Unlock()
		return
	}
	owner := d.ring.Owner(j.routingKey)
	if owner == "" {
		d.mu.Unlock()
		return
	}
	ns := d.nodes[owner]
	j.dispatching = true
	body := j.body
	d.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), shortTimeout)
	doc, err := ns.client.submit(ctx, body)
	cancel()

	d.mu.Lock()
	j.dispatching = false
	if err != nil || j.terminal {
		d.mu.Unlock()
		if err != nil {
			d.logf("dispatching %s to node %s failed (will retry): %v", id, owner, err)
		}
		return
	}
	backendID, _ := doc["id"].(string)
	if backendID == "" {
		d.mu.Unlock()
		d.logf("node %s accepted %s without a job id; leaving it for the janitor", owner, id)
		return
	}
	j.node = owner
	j.backendID = backendID
	d.assigns++
	j.assigned = d.assigns
	d.walAppendLocked(walRecord{Op: walOpDispatched, Job: id, Time: time.Now(), Node: owner, BackendID: backendID})
	d.applyBackendDocLocked(j, doc)
	d.mu.Unlock()
}

// applyBackendDocLocked folds a backend job document into the record: the
// public rewritten form becomes the status snapshot, and state/digest/error
// are lifted out for the dispatcher's own bookkeeping (a terminal state
// terminates the record). Callers hold d.mu.
func (d *Dispatcher) applyBackendDocLocked(j *jobRecord, doc map[string]any) {
	pub := rewriteJobDoc(doc, j.id, j.node)
	state, digest, errMsg := jobDocFields(pub)
	if state == "" {
		return // unreadable document; keep the last good snapshot
	}
	j.state = state
	if digest != "" {
		j.digest = digest
	}
	if errMsg != "" {
		j.errMsg = errMsg
	}
	j.status = pub
	if service.State(state).Terminal() {
		d.terminateLocked(j)
	}
}

// terminateLocked marks the job terminal and, the first time, appends its
// terminal WAL record. Callers hold d.mu.
func (d *Dispatcher) terminateLocked(j *jobRecord) {
	if j.terminal {
		return
	}
	j.terminal = true
	j.body = nil // never posted again; an in-flight post holds its own slice header
	d.walAppendLocked(walRecord{
		Op: walOpTerminal, Job: j.id, Time: time.Now(),
		Node: j.node, BackendID: j.backendID,
		State: j.state, Digest: j.digest, Error: j.errMsg,
	})
}

// walAppendLocked appends a lifecycle record without waiting for it to
// reach disk (it rides the next group commit). Callers hold d.mu, so
// records land in transition order. A failure is kept for the janitor to
// log and never fails the transition: losing a dispatched or terminal
// record only means extra deterministic re-work after a restart.
func (d *Dispatcher) walAppendLocked(rec walRecord) {
	if d.cfg.WAL == nil {
		return
	}
	if err := d.cfg.WAL.Append(rec); err != nil && !errors.Is(err, journal.ErrClosed) && d.walErr == nil {
		d.walErr = err
	}
}

// watchNode is one backend's health-and-sync loop: every cycle fetches the
// node's job list (the probe), folds the listed states into the
// dispatcher's records, unassigns jobs the backend no longer knows, and —
// after FailAfter consecutive failures — declares the node dead, drops it
// from the ring and fails its jobs over to the survivors. Probes back off
// exponentially while the node stays dead; a successful probe rejoins it.
func (d *Dispatcher) watchNode(name string) {
	defer d.wg.Done()
	d.mu.Lock()
	ns := d.nodes[name]
	d.mu.Unlock()
	delay := d.cfg.HealthInterval
	for {
		select {
		case <-d.stop:
			return
		case <-time.After(delay):
		}
		d.mu.Lock()
		asked := d.assigns
		d.mu.Unlock()
		ctx, cancel := context.WithTimeout(context.Background(), shortTimeout)
		list, err := ns.client.listJobs(ctx)
		cancel()
		if err != nil {
			delay = d.nodeProbeFailed(ns, err)
			continue
		}
		delay = d.cfg.HealthInterval
		d.nodeProbeOK(ns, list, asked)
	}
}

// nodeProbeFailed counts one failed probe, performing death detection and
// failover at the threshold, and returns the next probe delay (exponential
// backoff, capped at 8 intervals).
func (d *Dispatcher) nodeProbeFailed(ns *nodeState, probeErr error) time.Duration {
	d.mu.Lock()
	ns.fails++
	fails := ns.fails
	died := ns.alive && ns.fails >= d.cfg.FailAfter
	var orphans []string
	if died {
		ns.alive = false
		d.ring.Remove(ns.name)
		for _, id := range d.order {
			j := d.jobs[id]
			if j.node == ns.name && !j.terminal {
				j.node = ""
				j.backendID = ""
				j.state = string(service.StateQueued)
				j.status = synthStatus(j)
				orphans = append(orphans, id)
			}
		}
	}
	d.mu.Unlock()

	if died {
		d.logf("node %s is down after %d failed probes (%v); re-dispatching %d jobs to %d surviving nodes",
			ns.name, fails, probeErr, len(orphans), d.aliveCount())
		for _, id := range orphans {
			d.tryDispatch(id)
		}
	}
	backoff := min(fails-d.cfg.FailAfter, 3)
	if backoff < 0 {
		backoff = 0
	}
	return d.cfg.HealthInterval << backoff
}

// nodeProbeOK folds a successful probe's job list into the dispatcher's
// records and rejoins the node if it had been marked dead. asked is the
// assignment count read before the list was requested: a job assigned
// after it may be missing from a list the node rendered before the submit
// landed, so only older assignments are checked against the list.
func (d *Dispatcher) nodeProbeOK(ns *nodeState, list []map[string]any, asked uint64) {
	byID := make(map[string]map[string]any, len(list))
	for _, doc := range list {
		if id, _ := doc["id"].(string); id != "" {
			byID[id] = doc
		}
	}
	d.mu.Lock()
	ns.fails = 0
	rejoined := !ns.alive
	if rejoined {
		ns.alive = true
		d.ring.Add(ns.name)
	}
	var lost []string
	for _, id := range d.order {
		j := d.jobs[id]
		if j.node != ns.name || j.terminal || j.assigned > asked {
			continue
		}
		doc, known := byID[j.backendID]
		if !known {
			// The backend no longer knows the job (it restarted with an
			// empty queue, or evicted the record): hand it back to the
			// janitor for a deterministic re-dispatch.
			j.node = ""
			j.backendID = ""
			j.state = string(service.StateQueued)
			j.status = synthStatus(j)
			lost = append(lost, id)
			continue
		}
		d.applyBackendDocLocked(j, doc)
	}
	d.mu.Unlock()

	if rejoined {
		d.logf("node %s rejoined the ring", ns.name)
	}
	for _, id := range lost {
		d.tryDispatch(id)
	}
}

// aliveCount returns how many nodes are currently on the ring.
func (d *Dispatcher) aliveCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ring.Len()
}

// janitor periodically re-dispatches unassigned jobs — submissions that
// arrived while their owner was down, and failover orphans whose first
// re-dispatch attempt failed — and logs WAL append failures.
func (d *Dispatcher) janitor() {
	defer d.wg.Done()
	tick := time.NewTicker(d.cfg.HealthInterval)
	defer tick.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-tick.C:
		}
		d.mu.Lock()
		var waiting []string
		for _, id := range d.order {
			j := d.jobs[id]
			if j.node == "" && !j.terminal && !j.dispatching {
				waiting = append(waiting, id)
			}
		}
		walErr := d.walErr
		d.walErr = nil
		d.mu.Unlock()
		if walErr != nil {
			d.logf("WAL append failed: %v", walErr)
		}
		for _, id := range waiting {
			d.tryDispatch(id)
		}
	}
}

// Status returns the job's public status document, asking the owning node
// live when possible and falling back to the dispatcher's last snapshot
// when the job is unassigned, terminal, or its node cannot answer.
func (d *Dispatcher) Status(ctx context.Context, id string) (map[string]any, error) {
	j, snap, ns, err := d.route(id)
	if err != nil {
		return nil, err
	}
	if ns == nil || snap.terminal {
		return snap.status, nil
	}
	doc, code, err := ns.client.get(ctx, "/v1/jobs/"+snap.backendID)
	if err != nil || code != http.StatusOK {
		return snap.status, nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if j.node == snap.node { // not failed over while we asked
		d.applyBackendDocLocked(j, doc)
	}
	return j.status, nil
}

// Result proxies the job's full result (stencil plan included) from the
// owning node. A terminal job whose node no longer has the record answers
// with the dispatcher's digest-only snapshot, like a WAL-replayed record.
func (d *Dispatcher) Result(ctx context.Context, id string) (map[string]any, int, error) {
	_, snap, ns, err := d.route(id)
	if err != nil {
		return nil, 0, err
	}
	if ns != nil {
		// Backend refusals (409 not ready, 404 evicted) pass through with
		// the backend's own document and status code.
		doc, code, err := ns.client.get(ctx, "/v1/jobs/"+snap.backendID+"/result")
		if err == nil {
			return rewriteJobDoc(doc, id, snap.node), code, nil
		}
	}
	if snap.terminal {
		return snap.status, http.StatusOK, nil
	}
	if ns == nil {
		return nil, 0, fmt.Errorf("%w: job %s is waiting for a node", ErrNodeDown, id)
	}
	return nil, 0, fmt.Errorf("%w: job %s on node %s", ErrNodeDown, id, snap.node)
}

// route returns the job's record, a copy of it taken under d.mu, and the
// owning node (nil while the job is unassigned).
func (d *Dispatcher) route(id string) (*jobRecord, jobRecord, *nodeState, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	j := d.jobs[id]
	if j == nil {
		return nil, jobRecord{}, nil, ErrNotFound
	}
	return j, *j, d.nodes[j.node], nil
}

// Cancel proxies a cancellation. An unassigned job is cancelled locally;
// a job whose node is unreachable returns ErrNodeDown (retry after the
// failover re-homes it).
func (d *Dispatcher) Cancel(ctx context.Context, id string) (map[string]any, error) {
	d.mu.Lock()
	j := d.jobs[id]
	if j == nil {
		d.mu.Unlock()
		return nil, ErrNotFound
	}
	if j.terminal {
		out := j.status
		d.mu.Unlock()
		return out, nil
	}
	if j.node == "" {
		j.state = string(service.StateCanceled)
		j.errMsg = context.Canceled.Error()
		d.terminateLocked(j)
		j.status = synthStatus(j)
		out := j.status
		d.mu.Unlock()
		return out, nil
	}
	node, backendID := j.node, j.backendID
	ns := d.nodes[node]
	d.mu.Unlock()

	doc, code, err := ns.client.cancel(ctx, backendID)
	if err != nil || code != http.StatusOK {
		if err == nil {
			return nil, &wireError{fmt.Sprintf("dispatch: node %s refused the cancel (HTTP %d)", node, code), service.ErrUpstream}
		}
		return nil, fmt.Errorf("%w: job %s on node %s: %v", ErrNodeDown, id, node, err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if j.node == node {
		d.applyBackendDocLocked(j, doc)
	}
	return j.status, nil
}

// List returns every public job's last status snapshot in submission
// order. Snapshots refresh on the health-sync cadence (plus every live
// Status call), so a just-finished job may read as running for up to one
// HealthInterval.
func (d *Dispatcher) List() []map[string]any {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]map[string]any, 0, len(d.order))
	for _, id := range d.order {
		out = append(out, d.jobs[id].status)
	}
	return out
}

// NodeStatus is one backend's entry in the aggregated fleet stats.
type NodeStatus struct {
	Name    string         `json:"name"`
	URL     string         `json:"url"`
	Healthy bool           `json:"healthy"`
	Error   string         `json:"error,omitempty"`
	Stats   *service.Stats `json:"stats,omitempty"`
}

// DispatcherStats reports the dispatcher's own job table.
type DispatcherStats struct {
	// Jobs breaks the public job records down by state.
	Jobs service.StateCounts `json:"jobs"`
	// Unassigned counts jobs waiting for a reachable node.
	Unassigned int `json:"unassigned"`
	// Nodes and AliveNodes size the fleet.
	Nodes      int `json:"nodes"`
	AliveNodes int `json:"aliveNodes"`
}

// FleetStats is the dispatcher's GET /v1/stats document: the dispatcher's
// own table, each node's live snapshot, and the fleet-wide sums.
type FleetStats struct {
	Dispatcher DispatcherStats `json:"dispatcher"`
	Nodes      []NodeStatus    `json:"nodes"`
	// Fleet sums workers, queue depths, state counts and batch counters
	// across every node that answered.
	Fleet service.Stats `json:"fleet"`
}

// Stats aggregates GET /v1/stats across the fleet: each node is asked
// live and concurrently; unreachable nodes report their error instead of
// counters.
func (d *Dispatcher) Stats(ctx context.Context) FleetStats {
	d.mu.Lock()
	out := FleetStats{Dispatcher: DispatcherStats{Nodes: len(d.nodeOrder), AliveNodes: d.ring.Len()}}
	for _, id := range d.order {
		j := d.jobs[id]
		out.Dispatcher.Jobs.Add(service.State(j.state))
		if j.node == "" && !j.terminal {
			out.Dispatcher.Unassigned++
		}
	}
	clients := make([]*nodeState, 0, len(d.nodeOrder))
	for _, name := range d.nodeOrder {
		clients = append(clients, d.nodes[name])
	}
	d.mu.Unlock()

	out.Nodes = make([]NodeStatus, len(clients))
	var wg sync.WaitGroup
	for i, ns := range clients {
		wg.Add(1)
		go func(i int, ns *nodeState) {
			defer wg.Done()
			st := NodeStatus{Name: ns.name, URL: ns.url}
			s, err := ns.client.stats(ctx)
			if err != nil {
				st.Error = err.Error()
			} else {
				st.Healthy = true
				st.Stats = &s
			}
			out.Nodes[i] = st
		}(i, ns)
	}
	wg.Wait()
	for _, st := range out.Nodes {
		if st.Stats == nil {
			continue
		}
		addStats(&out.Fleet, *st.Stats)
	}
	return out
}

// addStats sums one node's operational counters into the fleet totals.
func addStats(dst *service.Stats, src service.Stats) {
	dst.Workers += src.Workers
	dst.QueueDepth += src.QueueDepth
	dst.InFlight += src.InFlight
	dst.Jobs.Queued += src.Jobs.Queued
	dst.Jobs.Running += src.Jobs.Running
	dst.Jobs.Done += src.Jobs.Done
	dst.Jobs.Failed += src.Jobs.Failed
	dst.Jobs.Canceled += src.Jobs.Canceled
	dst.Jobs.Total += src.Jobs.Total
	dst.Batch.Enabled = dst.Batch.Enabled || src.Batch.Enabled
	dst.Batch.Cohorts += src.Batch.Cohorts
	dst.Batch.BatchedJobs += src.Batch.BatchedJobs
	dst.Batch.Overtakes += src.Batch.Overtakes
	dst.Batch.AgedPops += src.Batch.AgedPops
}

// Close stops the health loops and the janitor, closes the WAL, and
// returns. Backend nodes are independent processes and keep running.
func (d *Dispatcher) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	d.mu.Unlock()
	close(d.stop)
	d.wg.Wait()
	if d.cfg.WAL != nil {
		_ = d.cfg.WAL.Close()
	}
}

// replayWALLocked rebuilds the dispatcher's job table from the log read at
// OpenWAL. Terminal jobs come back as digest-only records; every other
// accepted job re-enters the table with its last known assignment — the
// first health sync confirms it (or hands it to the janitor for a
// deterministic re-dispatch). Called from New before the loops start;
// d.mu is held.
func (d *Dispatcher) replayWALLocked() {
	recs := d.cfg.WAL.Replay()
	type slot struct {
		accepted   *walRecord
		dispatched *walRecord
		terminal   *walRecord
	}
	slots := make(map[string]*slot)
	var order []string
	maxID := 0
	for i := range recs {
		rec := &recs[i]
		s := slots[rec.Job]
		if s == nil {
			s = &slot{}
			slots[rec.Job] = s
			order = append(order, rec.Job)
		}
		switch rec.Op {
		case walOpAccepted:
			if s.accepted == nil {
				s.accepted = rec
			}
		case walOpDispatched:
			s.dispatched = rec
		case walOpTerminal:
			s.terminal = rec
		}
		if n, err := strconv.Atoi(strings.TrimPrefix(rec.Job, "j")); err == nil && n > maxID {
			maxID = n
		}
	}
	resumed, terminal := 0, 0
	for _, id := range order {
		s := slots[id]
		if s.accepted == nil {
			continue // dispatched/terminal noise without a spec; nothing to rebuild
		}
		a := s.accepted
		j := &jobRecord{
			id:         id,
			routingKey: a.RoutingKey,
			name:       a.Name,
			kind:       a.Kind,
			solver:     a.Solver,
			label:      a.Label,
			submitted:  a.Time,
			state:      string(service.StateQueued),
			replayed:   true,
		}
		if j.solver == "" {
			j.solver = "eblow"
		}
		switch {
		case s.terminal != nil:
			j.state = s.terminal.State
			j.digest = s.terminal.Digest
			j.errMsg = s.terminal.Error
			j.node = s.terminal.Node
			j.backendID = s.terminal.BackendID
			j.terminal = true
			terminal++
		default:
			// Only a job that may still be (re-)posted keeps its body.
			j.body = append([]byte(nil), a.Body...)
			if s.dispatched != nil {
				j.node = s.dispatched.Node
				j.backendID = s.dispatched.BackendID
			}
			resumed++
		}
		j.status = synthStatus(j)
		d.jobs[id] = j
		d.order = append(d.order, id)
	}
	if maxID > d.nextID {
		d.nextID = maxID
	}
	d.cfg.WAL.SetReplayStats(resumed, terminal)
}

// Healthy reports whether the named node is currently on the ring.
func (d *Dispatcher) Healthy(node string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	ns := d.nodes[node]
	return ns != nil && ns.alive
}
