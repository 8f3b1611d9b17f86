// Package service is the batched OSP job service: a long-running manager
// that queues many stencil-planning instances, drains them through one
// bounded worker pool shared across all jobs (reusing par.Pool), and
// reports progress as a per-job event stream. It is the step from "one CLI
// solve" to a server handling heavy traffic: submit returns immediately
// with a job ID, status/result/cancel are keyed by that ID, and cmd/eblowd
// exposes the whole thing over HTTP/JSON (see http.go). Two knobs keep a
// long-running deployment bounded: Config.RecordTTL evicts finished job
// records, and Config.MaxPending rejects submissions (ErrQueueFull → HTTP
// 429) once too many jobs are waiting.
//
// Two optional layers harden the service for real multi-user deployments:
// Config.WAL (see wal.go) is a durable write-ahead job log — an
// acknowledged submission survives kill -9, unfinished jobs are re-enqueued
// on the next boot and re-solve to bit-identical results for fixed seeds —
// and a Keyring (see auth.go) authenticates every HTTP request with static
// API keys carrying per-key pending-job quotas and token-bucket rate
// limits.
//
// The service schedules strategies through the unified solver API
// (eblow.SolveWith), so every registered strategy — "eblow", the baselines,
// "exact", "portfolio" — is available by name. Results are deterministic
// for a fixed seed regardless of the worker count or the order in which
// queued jobs drain: each job's solve is worker-count independent, and jobs
// never share random streams.
package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"eblow"
	"eblow/internal/batch"
	"eblow/internal/journal"
	"eblow/internal/par"
)

// State is a job's lifecycle state.
type State string

// The job lifecycle: Queued -> Running -> one of Done / Failed / Canceled.
// A queued job that is cancelled goes straight to Canceled.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Config configures a Manager.
type Config struct {
	// Workers is the size of the worker pool shared by every job (0 = one
	// worker per CPU). At most Workers jobs solve concurrently; the rest
	// wait in FIFO order.
	Workers int
	// RecordTTL bounds how long terminal job records (and their event
	// streams) stay readable after the job finished; expired records are
	// evicted and subsequent lookups return ErrNotFound. 0 keeps every
	// record forever — fine for tests and short-lived CLIs, a memory leak
	// for a long-running server, so cmd/eblowd always sets a TTL.
	RecordTTL time.Duration
	// MaxPending bounds the number of jobs waiting in the queue (queued,
	// not yet running). Submit returns ErrQueueFull once the bound is hit,
	// which the HTTP layer maps to 429 Too Many Requests — backpressure
	// instead of an unbounded queue under overload. 0 means no bound.
	MaxPending int
	// WAL is the durable job log (see OpenWAL); nil disables durability.
	// The manager owns it from here on: New replays it (re-enqueueing every
	// job that was accepted but not terminal), each job transition appends
	// a record, Submit does not acknowledge a job before its accepted
	// record is fsynced, and Close flushes and closes the log.
	WAL *WAL
	// Batch configures the cost-model scheduler (internal/batch). The
	// zero value drains in FIFO order.
	Batch BatchConfig
}

// BatchConfig configures the cost-model scheduler. Per-job results are
// bit-identical either way (the batch-identity contract,
// docs/INVARIANTS.md); the scheduler changes only which job starts next.
type BatchConfig struct {
	// Enabled switches the drain from FIFO order to cost-model scheduling:
	// each free pool worker runs the cheapest queued job by cost estimate.
	Enabled bool
	// MaxJump is the aging bound: a waiting job may be overtaken by at
	// most MaxJump later-submitted jobs before the scheduler pins it to
	// the front of the queue (0 = 16, negative = strict submission order).
	// It is a hard no-starvation guarantee, not a heuristic.
	MaxJump int
}

// maxJump resolves MaxJump's zero default; batch.NewQueue treats a
// negative bound as strict submission order. With scheduling off every job
// costs 0, equal costs pop earliest-first, and a bound of at least 1 keeps
// the aging rule (and its AgedPops counter) out of that FIFO drain.
func (b BatchConfig) maxJump() int {
	if b.MaxJump == 0 || !b.Enabled {
		return 16
	}
	return b.MaxJump
}

// JobSpec describes one solve to enqueue.
type JobSpec struct {
	// Instance is the problem to solve (required, validated at submit).
	Instance *eblow.Instance
	// Solver names the strategy to run ("" means the default E-BLOW
	// planner for the instance kind; "portfolio" races the registered
	// strategies, optionally restricted by Params.Strategies).
	Solver string
	// Params is the unified solver configuration. Workers 0 is normalised
	// to 1 so the shared pool stays the real concurrency bound; submitters
	// that want a multi-threaded solve ask for it explicitly.
	Params eblow.Params
	// Label is an optional caller tag echoed in statuses and events.
	Label string
	// Key is the authenticated API identity that submitted the job (""
	// when auth is disabled); it is stamped into statuses, events and WAL
	// records. The HTTP layer fills it from the request's key.
	Key string
	// KeyPending bounds how many of this key's jobs may wait in the queue
	// at once (0 = no per-key bound): Submit returns ErrKeyQuota once the
	// bound is hit, mapped to 429 on the wire like the global MaxPending.
	KeyPending int

	// checked is the instance ParseSubmit validated, together with the
	// spec's strategies; Submit checks any other Instance itself.
	checked *eblow.Instance
	// instJSON is the instance's compact JSON: the bytes the client sent
	// for an inline instance, so the accepted WAL record journals them as
	// they are.
	instJSON []byte
}

// dropInstance releases everything the spec holds of its instance. A job
// calls it on reaching a terminal state: from then on its record renders
// from instName and instKind, like a terminal record replayed from the WAL,
// so a finished record pins no instance for the record TTL.
func (s *JobSpec) dropInstance() {
	s.Instance, s.checked, s.instJSON = nil, nil, nil
}

// Event is one entry of a job's progress stream.
type Event struct {
	// Seq numbers the job's events from 1.
	Seq int `json:"seq"`
	// JobID identifies the job.
	JobID string `json:"job"`
	// Time is when the event was recorded.
	Time time.Time `json:"time"`
	// State is the job state after the event.
	State State `json:"state"`
	// Message is a human-readable progress note.
	Message string `json:"message,omitempty"`
	// Key is the API identity that owns the job (omitted when auth is
	// disabled).
	Key string `json:"key,omitempty"`
}

// JobStatus is an immutable snapshot of one job.
type JobStatus struct {
	ID        string
	Label     string
	Solver    string
	Instance  string
	Kind      eblow.Kind
	State     State
	Submitted time.Time
	Started   time.Time
	Finished  time.Time
	// Result is set once the job is done (and may carry a partial
	// incumbent for a cancelled or deadline-expired solve whose strategy
	// returns best-so-far). For a terminal record replayed from the WAL the
	// Result summary is present but Result.Solution is nil — the log keeps
	// the digest, not the plan.
	Result *eblow.Result
	// Err reports why a failed or cancelled job carries no (full) result.
	Err error
	// Key is the API identity that submitted the job ("" without auth).
	Key string
	// Digest fingerprints a completed result (see resultDigest): identical
	// across a WAL replay and an uninterrupted run for a fixed seed.
	Digest string
	// Replayed marks a terminal record restored from the WAL, whose
	// Result carries the summary and digest but no stencil plan.
	Replayed bool
}

// job is the mutable record behind a JobStatus, guarded by Manager.mu.
type job struct {
	id     string
	spec   JobSpec
	state  State
	result *eblow.Result
	err    error

	// instName and instKind duplicate the instance identity so a terminal
	// record replayed from the WAL (whose full instance was dropped at
	// compaction) still renders a complete status.
	instName string
	instKind eblow.Kind
	// digest fingerprints a completed result (see resultDigest).
	digest string
	// replayed marks a digest-only terminal record restored from the WAL.
	replayed bool

	submitted time.Time
	started   time.Time
	finished  time.Time

	ctx             context.Context
	cancel          context.CancelFunc
	cancelRequested bool
	// interrupted marks a running job cut off by Close: the in-memory
	// record reads cancelled, but no terminal WAL record is written, so
	// the accepted record replays the job on the next boot.
	interrupted bool

	events  []Event
	changed chan struct{} // closed and replaced on every event append
}

// ErrNotFound is returned for an unknown (or TTL-evicted) job ID.
var ErrNotFound = errors.New("service: no such job")

// ErrClosed is returned when submitting to a closed manager.
var ErrClosed = errors.New("service: manager is closed")

// ErrQueueFull is returned by Submit when Config.MaxPending jobs are already
// waiting; the HTTP layer maps it to 429 Too Many Requests.
var ErrQueueFull = errors.New("service: pending job queue is full")

// ErrNotDurable is returned (wrapped, alongside a valid JobStatus) by
// Submit when the job was queued but its accepted WAL record could not be
// fsynced: the job will run, but would not survive a crash. The HTTP layer
// maps it to 500.
var ErrNotDurable = errors.New("service: accepted job is not durable")

// ErrKeyQuota is returned by Submit when the submitting key already has
// JobSpec.KeyPending jobs waiting; the HTTP layer maps it to 429 like
// ErrQueueFull — per-key backpressure instead of one tenant filling the
// shared queue.
var ErrKeyQuota = errors.New("service: key's pending-job quota is full")

// Manager queues jobs and drains them through one shared worker pool.
type Manager struct {
	pool *par.Pool
	cfg  Config

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu sync.Mutex
	// guarded by mu
	jobs map[string]*job
	// guarded by mu — submission order of the keys of jobs; every
	// snapshot/replay iteration walks this, never the map
	order []string
	// guarded by mu — jobs in StateQueued
	pending int
	// guarded by mu — StateQueued jobs per API key
	keyPending map[string]int
	// guarded by mu
	nextID int
	// guarded by mu
	closed bool

	// queue is the drain's scheduler; it holds exactly the StateQueued
	// jobs. guarded by mu
	queue *batch.Queue
}

// New starts a manager with cfg.Workers pool workers. A positive
// cfg.RecordTTL also starts a janitor goroutine that owns the periodic
// eviction sweep; the request paths never pay for a full sweep — Status and
// friends only check the TTL of the one record they touch, so an expired
// record reads as gone the moment its TTL lapses even if the janitor has
// not collected it yet.
func New(cfg Config) *Manager {
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		pool:       par.NewPool(cfg.Workers),
		cfg:        cfg,
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*job),
		keyPending: make(map[string]int),
		queue:      batch.NewQueue(cfg.Batch.maxJump()),
	}
	if cfg.WAL != nil {
		m.mu.Lock()
		m.replayWALLocked()
		m.mu.Unlock()
	}
	if cfg.RecordTTL > 0 {
		go m.janitor()
	}
	return m
}

// keyPendingAddLocked adjusts the key's queued-job count. Callers hold m.mu.
func (m *Manager) keyPendingAddLocked(j *job, delta int) {
	if j.spec.Key == "" {
		return
	}
	m.keyPending[j.spec.Key] += delta
	if m.keyPending[j.spec.Key] <= 0 {
		delete(m.keyPending, j.spec.Key)
	}
}

// janitor periodically evicts expired terminal job records until Close.
func (m *Manager) janitor() {
	period := m.cfg.RecordTTL / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-m.baseCtx.Done():
			return
		case <-tick.C:
			m.mu.Lock()
			m.evictLocked(time.Now())
			m.mu.Unlock()
		}
	}
}

// expiredLocked reports whether the record's TTL has lapsed. Running and
// queued jobs never expire, no matter how old. Callers hold m.mu.
func (m *Manager) expiredLocked(j *job, now time.Time) bool {
	return m.cfg.RecordTTL > 0 && j.state.Terminal() && !j.finished.IsZero() &&
		now.Sub(j.finished) > m.cfg.RecordTTL
}

// evictLocked drops terminal job records whose TTL expired. It is an O(all
// records) sweep, so only the janitor and the already-O(n) List call it —
// the per-job request paths use expiredLocked instead. Callers hold m.mu.
func (m *Manager) evictLocked(now time.Time) {
	if m.cfg.RecordTTL <= 0 {
		return
	}
	kept := m.order[:0]
	for _, id := range m.order {
		if m.expiredLocked(m.jobs[id], now) {
			delete(m.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	for i := len(kept); i < len(m.order); i++ {
		m.order[i] = "" // release the evicted tail for the GC
	}
	m.order = kept
}

// Workers returns the size of the shared worker pool.
func (m *Manager) Workers() int { return m.pool.Workers() }

// Submit validates the spec (a spec from ParseSubmit is validated
// already), enqueues the job and returns its initial status. The call
// never blocks on the queue: the job solves once a pool worker is free, in
// FIFO order. With a WAL configured, Submit waits for
// the job's accepted record to be fsynced before returning (concurrent
// submits share one fsync), so an acknowledged job survives any crash.
func (m *Manager) Submit(spec JobSpec) (JobStatus, error) {
	if spec.Instance == nil {
		return JobStatus{}, errors.New("service: job needs an instance")
	}
	if spec.Instance != spec.checked {
		if err := spec.Instance.Validate(); err != nil {
			return JobStatus{}, fmt.Errorf("service: invalid instance: %w", err)
		}
		if err := checkStrategies(spec); err != nil {
			return JobStatus{}, err
		}
		spec.instJSON = nil // the bytes, if any, are another instance's
	}
	if spec.Params.Workers <= 0 {
		spec.Params.Workers = 1
	}
	// Every JSON encoding happens here, before mu: under it, the accepted
	// record costs only its small header and the buffered write. Without a
	// WAL the job needs no instance bytes at all.
	var walErr error
	if m.cfg.WAL == nil {
		spec.instJSON = nil
	} else {
		spec.instJSON, walErr = instanceJSON(spec)
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return JobStatus{}, ErrClosed
	}
	if m.cfg.MaxPending > 0 && m.pending >= m.cfg.MaxPending {
		m.mu.Unlock()
		return JobStatus{}, fmt.Errorf("%w (%d jobs waiting)", ErrQueueFull, m.cfg.MaxPending)
	}
	if spec.Key != "" && spec.KeyPending > 0 && m.keyPending[spec.Key] >= spec.KeyPending {
		m.mu.Unlock()
		return JobStatus{}, fmt.Errorf("%w (key %q, %d jobs waiting)", ErrKeyQuota, spec.Key, spec.KeyPending)
	}
	m.nextID++
	ctx, cancel := context.WithCancel(m.baseCtx)
	j := &job{
		id:        fmt.Sprintf("j%d", m.nextID),
		spec:      spec,
		instName:  spec.Instance.Name,
		instKind:  spec.Instance.Kind,
		state:     StateQueued,
		submitted: time.Now(),
		ctx:       ctx,
		cancel:    cancel,
		changed:   make(chan struct{}),
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.pending++
	m.keyPendingAddLocked(j, 1)
	m.appendEventLocked(j, "queued for "+SolverLabel(spec))
	// The accepted record is buffered under mu so the WAL's record order
	// matches the queue order; the fsync wait happens after unlock.
	if m.cfg.WAL != nil && walErr == nil {
		var line journal.Line
		if line, walErr = m.walAccepted(j); walErr == nil {
			walErr = m.cfg.WAL.AppendEncoded(line)
		}
	}
	status := m.statusLocked(j)
	// Enqueue while still holding mu: Close sets closed under the same
	// lock before closing the pool, so a submit that saw closed == false
	// always reaches the pool before Close can shut it.
	m.enqueueLocked(j)
	m.mu.Unlock()
	if walErr == nil && m.cfg.WAL != nil {
		walErr = m.cfg.WAL.Flush()
	}
	if walErr != nil {
		// The job is already queued and will run; what failed is only the
		// durability guarantee, and the submitter must know its ack is
		// best-effort now.
		return status, fmt.Errorf("%w: job %s: %v", ErrNotDurable, j.id, walErr)
	}
	return status, nil
}

// checkStrategies rejects unknown strategies and kind mismatches at submit
// time, so a bad request fails fast instead of queueing a doomed job.
func checkStrategies(spec JobSpec) error {
	names := spec.Params.Strategies
	for _, name := range names {
		// The race cannot contain itself; entrants() would reject the job
		// only after it queued, so fail the submit instead.
		if name == "portfolio" && (spec.Solver != "" || len(names) > 1) {
			return fmt.Errorf("service: %q cannot appear inside a strategy set; name it as the solver instead", name)
		}
	}
	if spec.Solver != "" {
		if len(names) > 0 && spec.Solver != "portfolio" {
			return fmt.Errorf("service: solver %q conflicts with an explicit strategy set %v (use solver \"portfolio\" to race them)", spec.Solver, names)
		}
		names = append([]string{spec.Solver}, names...)
	}
	for _, name := range names {
		info, ok := eblow.LookupInfo(name)
		if !ok {
			return fmt.Errorf("service: unknown solver %q (have %v)", name, eblow.SolverNames())
		}
		if !info.Supports(spec.Instance.Kind) {
			return fmt.Errorf("service: solver %q does not support %s instances", name, spec.Instance.Kind)
		}
	}
	return nil
}

// SolverLabel names what the spec runs, as job statuses report it.
func SolverLabel(spec JobSpec) string {
	switch {
	case spec.Solver != "":
		return spec.Solver
	case len(spec.Params.Strategies) == 1:
		return spec.Params.Strategies[0] // SolveWith runs it solo, not as a race
	case len(spec.Params.Strategies) > 1:
		return fmt.Sprintf("portfolio of %v", spec.Params.Strategies)
	default:
		return "eblow"
	}
}

// solveSpec runs the spec's strategy under the unified contract. An
// explicit solver name runs that exact strategy — "portfolio" with a
// restricted Params.Strategies stays a race (per-entrant seed offsets,
// populated Runs) rather than collapsing to a bare single-strategy solve.
// Without a name, SolveWith's strategy-set dispatch applies. A package
// variable so tests can inject stub strategies that exercise result/error
// combinations the registered solvers never produce (partial incumbents
// alongside an error, nil Solutions).
var solveSpec = func(ctx context.Context, spec JobSpec) (*eblow.Result, error) {
	if s, ok := eblow.Lookup(spec.Solver); spec.Solver != "" && ok {
		return s.Solve(ctx, spec.Instance, spec.Params)
	}
	return eblow.SolveWith(ctx, spec.Instance, spec.Params)
}

// effectiveStrategy resolves which registry strategy the spec will run,
// mirroring solveSpec/eblow.SolveWith's dispatch: an explicit solver name
// wins, a single non-portfolio strategy runs solo, anything else is the
// default planner or a race.
func effectiveStrategy(spec JobSpec) string {
	if spec.Solver != "" {
		return spec.Solver
	}
	switch {
	case len(spec.Params.Strategies) == 0:
		return "eblow"
	case len(spec.Params.Strategies) == 1 && spec.Params.Strategies[0] != "portfolio":
		return spec.Params.Strategies[0]
	default:
		return "portfolio"
	}
}

// enqueueLocked hands a freshly queued job to the drain: a scheduler push
// plus a drain ticket. With cost scheduling off every job costs 0, so the
// queue pops in submission order. Callers hold m.mu.
func (m *Manager) enqueueLocked(j *job) {
	var cost float64
	if m.cfg.Batch.Enabled {
		cost = batch.Estimate(j.spec.Instance, effectiveStrategy(j.spec))
	}
	m.queue.Push(batch.Item{ID: j.id, Cost: cost})
	// One ticket per submitted job: the ticket of a job cancelled while
	// queued finds the queue one job short and returns.
	m.pool.Submit(m.drainOne)
}

// run executes the job drainOne popped on a pool worker: start, solve and
// finish.
func (m *Manager) run(j *job) {
	m.mu.Lock()
	if !m.startLocked(j) {
		m.mu.Unlock()
		return
	}
	spec, name := j.spec, j.instName // finishLocked drops the record's instance
	m.mu.Unlock()

	res, err := solveSpec(j.ctx, spec)
	// Only a completed solve gets a digest, and it is computed outside mu.
	var digest string
	if err == nil {
		digest = resultDigest(name, res)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	m.finishLocked(j, res, digest, err)
}

// drainOne is one pool ticket: it pops the job the scheduler picks and
// runs it. The queue and the job states move in lockstep under mu (Cancel
// removes queued jobs from both), so a popped job is queued unless a
// Cancel or Close lands before run takes the lock, which startLocked then
// refuses.
func (m *Manager) drainOne() {
	m.mu.Lock()
	it, _ := m.queue.Pop()
	j := m.jobs[it.ID]
	m.mu.Unlock()
	if j != nil {
		m.run(j)
	}
}

// startLocked transitions a job Queued -> Running and writes the started
// WAL record. It reports false when the job was cancelled while queued
// (Cancel already wrote the terminal record) or the manager is shutting
// down — on shutdown the queued job's accepted WAL record stays the last
// word, so the next boot re-enqueues it instead of recording a spurious
// cancellation. Callers hold m.mu.
func (m *Manager) startLocked(j *job) bool {
	if j.state != StateQueued || m.closed {
		return false
	}
	j.state = StateRunning
	m.pending--
	m.keyPendingAddLocked(j, -1)
	j.started = time.Now()
	m.appendEventLocked(j, fmt.Sprintf("solving %s (%s, %d characters)", j.spec.Instance.Name, j.spec.Instance.Kind, j.spec.Instance.NumCharacters()))
	m.walAppendLocked(j, walRecord{Op: walOpStarted, Job: j.id, Time: j.started, Key: j.spec.Key})
	return true
}

// finishLocked applies a finished solve's terminal transition: state,
// result, digest (resultDigest of res, which the caller computed when err
// is nil), events, terminal WAL record. Callers hold m.mu.
func (m *Manager) finishLocked(j *job, res *eblow.Result, digest string, err error) {
	j.spec.dropInstance()
	j.finished = time.Now()
	j.cancel() // release the job's context resources
	switch {
	case j.cancelRequested || (err != nil && errors.Is(err, context.Canceled) && !j.interrupted):
		// Strategies that return their best-so-far plan on cancellation
		// (annealing, branch and bound) still hand us a result; keep it as
		// a partial incumbent but report the job as cancelled.
		j.state = StateCanceled
		j.result = res
		j.err = err
		if j.err == nil {
			j.err = context.Canceled
		}
		m.appendEventLocked(j, "cancelled")
	case j.interrupted:
		// Cut off by Close, not by the user: the in-memory record reads
		// cancelled for the dying process, but no terminal WAL record is
		// written — the accepted record replays the job on the next boot as
		// if it had never started. A best-so-far incumbent returned with a
		// nil error must not masquerade as a completed result either.
		j.state = StateCanceled
		j.result = res
		j.err = context.Canceled
		m.appendEventLocked(j, "interrupted by shutdown; the WAL replays the job on the next boot")
		return
	case err != nil:
		// A deadline-expired strategy hands back its best-so-far incumbent
		// just like a cancelled one; keep the partial plan instead of
		// discarding it with the error, and report the cause in Err.
		j.state = StateFailed
		j.err = err
		j.result = res
		if errors.Is(err, context.DeadlineExceeded) && res != nil && res.Solution != nil {
			m.appendEventLocked(j, "deadline expired: kept the best-so-far incumbent")
		} else {
			m.appendEventLocked(j, "failed: "+err.Error())
		}
	default:
		j.state = StateDone
		j.result = res
		j.digest = digest
		m.appendEventLocked(j, fmt.Sprintf("done: strategy %s, writing time %d, feasible %v, %s",
			res.Strategy, res.Objective, res.Feasible, res.Elapsed.Round(time.Millisecond)))
	}
	m.walAppendLocked(j, m.walTerminal(j))
	m.maybeCompactWALLocked()
}

// Status returns a snapshot of the job.
func (m *Manager) Status(id string) (JobStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok || m.expiredLocked(j, time.Now()) {
		return JobStatus{}, ErrNotFound
	}
	return m.statusLocked(j), nil
}

// List returns a snapshot of every job in submission order.
func (m *Manager) List() []JobStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.evictLocked(time.Now())
	out := make([]JobStatus, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.statusLocked(m.jobs[id]))
	}
	return out
}

// Cancel cancels the job: a queued job is marked cancelled immediately and
// its queue slot becomes a no-op, a running job's context is cancelled so
// its solver returns at the next checkpoint and the worker frees up for the
// next queued job. Cancelling a terminal job is a no-op.
func (m *Manager) Cancel(id string) (JobStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok || m.expiredLocked(j, time.Now()) {
		return JobStatus{}, ErrNotFound
	}
	switch j.state {
	case StateQueued:
		m.queue.Remove(j.id)
		j.state = StateCanceled
		j.spec.dropInstance()
		m.pending--
		m.keyPendingAddLocked(j, -1)
		j.err = context.Canceled
		j.finished = time.Now()
		j.cancel()
		m.appendEventLocked(j, "cancelled while queued")
		m.walAppendLocked(j, m.walTerminal(j))
	case StateRunning:
		if !j.cancelRequested {
			j.cancelRequested = true
			j.cancel()
			m.appendEventLocked(j, "cancellation requested")
		}
	}
	return m.statusLocked(j), nil
}

// Events streams the job's progress: every event recorded so far is
// replayed in order, then live events follow until the job reaches a
// terminal state or ctx is done, at which point the channel closes.
func (m *Manager) Events(ctx context.Context, id string) (<-chan Event, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if ok && m.expiredLocked(j, time.Now()) {
		ok = false
	}
	m.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	ch := make(chan Event)
	go func() {
		defer close(ch)
		next := 0
		for {
			m.mu.Lock()
			pending := append([]Event(nil), j.events[next:]...)
			changed := j.changed
			terminal := j.state.Terminal()
			m.mu.Unlock()
			for _, e := range pending {
				select {
				case ch <- e:
				case <-ctx.Done():
					return
				}
			}
			next += len(pending)
			if terminal {
				return
			}
			select {
			case <-changed:
			case <-ctx.Done():
				return
			}
		}
	}()
	return ch, nil
}

// Close stops accepting jobs, cancels everything queued or running, waits
// for the pool workers to finish, flushes and closes the WAL, and returns.
// Job records stay readable. Idempotent: a second Close is a no-op. With a
// WAL, interrupted work is not lost — queued jobs and running jobs cut off
// mid-solve keep their accepted records as the log's last word, so a new
// manager opened on the same WAL re-enqueues them.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	// Walk in submission order (m.order), not map order, so shutdown
	// touches jobs in the same sequence on every run.
	for _, id := range m.order {
		if j := m.jobs[id]; j.state == StateRunning {
			j.interrupted = true
		}
	}
	m.mu.Unlock()
	m.baseCancel() // cancels every job context, queued slots drain as no-ops
	m.pool.Close()
	if m.cfg.WAL != nil {
		_ = m.cfg.WAL.Close()
	}
}

// appendEventLocked records an event on the job and wakes subscribers.
// Callers hold m.mu.
func (m *Manager) appendEventLocked(j *job, message string) {
	j.events = append(j.events, Event{
		Seq:     len(j.events) + 1,
		JobID:   j.id,
		Time:    time.Now(),
		State:   j.state,
		Message: message,
		Key:     j.spec.Key,
	})
	close(j.changed)
	j.changed = make(chan struct{})
}

// statusLocked snapshots the job. Callers hold m.mu.
func (m *Manager) statusLocked(j *job) JobStatus {
	return JobStatus{
		ID:        j.id,
		Label:     j.spec.Label,
		Solver:    SolverLabel(j.spec),
		Instance:  j.instName,
		Kind:      j.instKind,
		State:     j.state,
		Submitted: j.submitted,
		Started:   j.started,
		Finished:  j.finished,
		Result:    j.result,
		Err:       j.err,
		Key:       j.spec.Key,
		Digest:    j.digest,
		Replayed:  j.replayed,
	}
}
