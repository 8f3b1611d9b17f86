// The service's write-ahead job log: one NDJSON record per job transition
// (accepted spec, started, terminal outcome), so a crashed or killed server
// loses no accepted work. The file mechanics — group-commit fsync, torn-tail
// handling, compaction — live in internal/journal; this file holds the
// record schema and the manager's replay and snapshot glue. A submit blocks
// until its accepted record is on disk (concurrent submits share one
// fsync); started and terminal records ride the next group commit. On boot
// the manager replays the log: jobs that were accepted but never reached a
// terminal state are re-enqueued in their original submission order —
// re-solving is deterministic for a fixed seed, so a replayed job
// reproduces the result the uninterrupted run would have produced — while
// terminal records become readable digest-only job records (state,
// objective, result digest; the stencil plan itself is not logged). Once the
// log outgrows its size threshold it is compacted to one snapshot record
// per live job.
package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"eblow"
	"eblow/internal/journal"
)

// WAL record ops, in lifecycle order.
const (
	walOpAccepted = "accepted"
	walOpStarted  = "started"
	walOpTerminal = "terminal"
)

// DefaultWALMaxBytes is the compaction threshold used when OpenWAL is given
// a non-positive one.
const DefaultWALMaxBytes = 8 << 20

// walParams is the persisted subset of eblow.Params: exactly the fields a
// wire submission can carry, which is every field but CollectTrace; that
// one changes neither the plan nor its digest.
type walParams struct {
	Workers    int      `json:"workers,omitempty"`
	Seed       int64    `json:"seed,omitempty"`
	DeadlineNs int64    `json:"deadlineNs,omitempty"`
	Restarts   int      `json:"restarts,omitempty"`
	Strategies []string `json:"strategies,omitempty"`
}

func toWalParams(p eblow.Params) *walParams {
	return &walParams{
		Workers:    p.Workers,
		Seed:       p.Seed,
		DeadlineNs: int64(p.Deadline),
		Restarts:   p.Restarts,
		Strategies: p.Strategies,
	}
}

func (p *walParams) params() eblow.Params {
	if p == nil {
		return eblow.Params{}
	}
	return eblow.Params{
		Workers:    p.Workers,
		Seed:       p.Seed,
		Deadline:   time.Duration(p.DeadlineNs),
		Restarts:   p.Restarts,
		Strategies: p.Strategies,
	}
}

// walRecord is one NDJSON line of the job log. Accepted records carry the
// full spec so the job can re-run after a crash — the instance as the
// compact JSON the client sent, which walAccepted splices in rather than
// re-encoding or copying; terminal records carry the identity fields plus
// the outcome so a compacted log still renders a complete status without
// the accepted record.
type walRecord struct {
	Op   string    `json:"op"`
	Job  string    `json:"job"`
	Time time.Time `json:"time"`

	// Submission identity.
	Key        string          `json:"key,omitempty"`
	KeyPending int             `json:"keyPending,omitempty"`
	Label      string          `json:"label,omitempty"`
	Solver     string          `json:"solver,omitempty"`
	Name       string          `json:"name,omitempty"`
	Kind       string          `json:"kind,omitempty"`
	Params     *walParams      `json:"params,omitempty"`
	Instance   json.RawMessage `json:"instance,omitempty"`
	Submitted  time.Time       `json:"submitted,omitempty"`

	// Terminal outcome.
	State     string `json:"state,omitempty"`
	Error     string `json:"error,omitempty"`
	Strategy  string `json:"strategy,omitempty"`
	Objective int64  `json:"objective,omitempty"`
	Feasible  bool   `json:"feasible,omitempty"`
	ElapsedMs int64  `json:"elapsedMs,omitempty"`
	Digest    string `json:"digest,omitempty"`
}

// valid reports whether a decoded line is a usable record.
func (r *walRecord) valid() bool { return r.Op != "" && r.Job != "" }

// WAL is the durable job log. Open it with OpenWAL and hand it to
// Config.WAL; the manager owns it from then on (replays it in New, appends
// per-transition records, compacts it, and flushes + closes it in Close).
type WAL = journal.Log[walRecord]

// OpenWAL opens (creating if needed) the job log at path and parses its
// existing records for replay. maxBytes is the compaction threshold
// (<= 0 uses DefaultWALMaxBytes). Unparseable lines — e.g. a torn tail
// after kill -9 mid-append — are counted in Stats and skipped.
func OpenWAL(path string, maxBytes int64) (*WAL, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultWALMaxBytes
	}
	return journal.Open(path, maxBytes, (*walRecord).valid)
}

// resultDigest fingerprints a finished result: a hex SHA-256 over the
// instance name, winning strategy, objective, feasibility and the full plan
// geometry — exactly the fields that are deterministic for a fixed seed
// (the wall-clock Runtime is zeroed out). Bit-identical replayed solves
// therefore produce bit-identical digests, which is what the chaos test
// compares across a kill -9 and an uninterrupted run. The plan's
// json.Marshal bytes are streamed into the hash, not copied out first.
func resultDigest(instance string, res *eblow.Result) string {
	if res == nil {
		return ""
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s|%d|%v\n", instance, res.Strategy, res.Objective, res.Feasible)
	if res.Solution != nil {
		s := *res.Solution
		s.Runtime = 0
		// A plan that does not encode adds nothing, as with json.Marshal;
		// a hash never fails a write.
		_ = json.NewEncoder(dropNewline{h}).Encode(&s)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// dropNewline passes each write on without the newline json.Encoder ends
// every value with, so an encoded value reaches w as json.Marshal's bytes.
type dropNewline struct{ w io.Writer }

func (d dropNewline) Write(p []byte) (int, error) {
	_, err := d.w.Write(bytes.TrimSuffix(p, []byte("\n")))
	return len(p), err
}

// walIdentity stamps the record fields shared by accepted and terminal
// records. Callers hold m.mu.
func (m *Manager) walIdentity(j *job, rec *walRecord) {
	rec.Job = j.id
	rec.Key = j.spec.Key
	rec.KeyPending = j.spec.KeyPending
	rec.Label = j.spec.Label
	rec.Solver = j.spec.Solver
	rec.Name = j.instName
	rec.Kind = j.instKind.String()
	rec.Params = toWalParams(j.spec.Params)
	rec.Submitted = j.submitted
}

// walAccepted encodes the job's accepted record: the small header through
// json.Marshal, then the instance JSON spliced in as it is, uncopied.
// Callers hold m.mu.
func (m *Manager) walAccepted(j *job) (journal.Line, error) {
	if j.spec.instJSON == nil {
		return nil, fmt.Errorf("service: job %s has no instance JSON to journal", j.id)
	}
	rec := walRecord{Op: walOpAccepted, Time: j.submitted}
	m.walIdentity(j, &rec)
	return journal.Splice(rec, "instance", j.spec.instJSON)
}

// instanceJSON returns the compact JSON the accepted record journals: the
// bytes the spec carries (the client's, from ParseSubmit) or, for an
// in-process submitter, the instance's json.Marshal encoding.
func instanceJSON(spec JobSpec) ([]byte, error) {
	if spec.instJSON != nil {
		return spec.instJSON, nil
	}
	b, err := json.Marshal(spec.Instance)
	if err != nil {
		return nil, fmt.Errorf("service: encoding instance for WAL: %w", err)
	}
	return b, nil
}

// walTerminal builds the job's terminal record: identity plus outcome, so
// it stands alone after compaction drops the accepted record.
func (m *Manager) walTerminal(j *job) walRecord {
	rec := walRecord{Op: walOpTerminal, Time: j.finished, State: string(j.state), Digest: j.digest}
	m.walIdentity(j, &rec)
	if j.err != nil {
		rec.Error = j.err.Error()
	}
	if r := j.result; r != nil {
		rec.Strategy = r.Strategy
		rec.Objective = r.Objective
		rec.Feasible = r.Feasible
		rec.ElapsedMs = r.Elapsed.Milliseconds()
	}
	return rec
}

// walAppendLocked appends a lifecycle record; failures degrade to a warning
// event on the job rather than failing the transition (the solve result is
// already in memory — losing a started/terminal record only means the job
// re-runs after a crash). Callers hold m.mu.
func (m *Manager) walAppendLocked(j *job, rec walRecord) {
	if m.cfg.WAL == nil {
		return
	}
	if err := m.cfg.WAL.Append(rec); err != nil && !errors.Is(err, journal.ErrClosed) {
		m.appendEventLocked(j, "warning: WAL append failed: "+err.Error())
	}
}

// maybeCompactWALLocked snapshots the live jobs over the log once it
// outgrows its threshold: one terminal record per finished job, one
// accepted record per queued or running job (a running job re-runs on
// replay exactly as if the crash had happened mid-solve). A failed rewrite
// keeps the old log and is retried once the log grows again. Callers hold
// m.mu.
func (m *Manager) maybeCompactWALLocked() {
	w := m.cfg.WAL
	if w == nil || !w.NeedsCompact() {
		return
	}
	m.evictLocked(time.Now()) // expired records need no snapshot
	lines := make([]journal.Line, 0, len(m.order))
	for _, id := range m.order {
		j := m.jobs[id]
		var line journal.Line
		var err error
		if j.state.Terminal() {
			var b []byte
			b, err = json.Marshal(m.walTerminal(j))
			line = journal.Line{b}
		} else {
			line, err = m.walAccepted(j) // the live job's bytes, reused
		}
		if err != nil {
			return // cannot snapshot this job; keep the full log
		}
		lines = append(lines, line)
	}
	_ = w.CompactTo(lines)
}

// replayWALLocked rebuilds the manager's job table from the log read at
// OpenWAL: terminal records become readable digest-only job records (the
// plan itself was never logged), and every job accepted but not terminal is
// re-enqueued in its original submission order — including jobs that were
// mid-solve when the process died. Called from New before any other
// goroutine can touch the manager; m.mu is held for the pool handoff.
func (m *Manager) replayWALLocked() {
	recs := m.cfg.WAL.Replay()
	type slot struct {
		accepted *walRecord
		terminal *walRecord
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
		switch {
		case s.terminal != nil:
			m.replayTerminalLocked(id, s.terminal)
			terminal++
		case s.accepted != nil:
			if m.replayAcceptedLocked(id, s.accepted) {
				resumed++
			} else {
				terminal++
			}
		}
	}
	if maxID > m.nextID {
		m.nextID = maxID
	}
	m.cfg.WAL.SetReplayStats(resumed, terminal)
}

// replayTerminalLocked restores a finished job as a digest-only record:
// readable (and TTL-evictable) like any terminal job, but with a nil
// Solution — the WAL logs the result digest, not the plan.
func (m *Manager) replayTerminalLocked(id string, rec *walRecord) {
	j := m.replayedJobLocked(id, rec)
	j.state = State(rec.State)
	j.digest = rec.Digest
	j.replayed = true
	j.finished = rec.Time
	if !j.state.Terminal() {
		j.state = StateFailed
	}
	if rec.Error != "" {
		j.err = errors.New(rec.Error)
	}
	if rec.Strategy != "" || rec.Digest != "" {
		j.result = &eblow.Result{
			Strategy:  rec.Strategy,
			Objective: rec.Objective,
			Feasible:  rec.Feasible,
			Elapsed:   time.Duration(rec.ElapsedMs) * time.Millisecond,
		}
	}
	m.appendEventLocked(j, fmt.Sprintf("replayed terminal record from WAL: %s", j.state))
}

// replayAcceptedLocked re-enqueues a job that never reached a terminal
// state. A spec that no longer decodes (corrupt record) becomes a failed
// record instead, so the ID stays visible rather than silently vanishing.
// Reports whether the job was actually re-enqueued.
func (m *Manager) replayAcceptedLocked(id string, rec *walRecord) bool {
	j := m.replayedJobLocked(id, rec)
	if j.submitted.IsZero() {
		j.submitted = rec.Time
	}
	in, err := eblow.DecodeInstance(bytes.NewReader(rec.Instance))
	if err != nil {
		j.state = StateFailed
		j.err = fmt.Errorf("service: replaying job spec from WAL: %w", err)
		j.finished = time.Now()
		m.appendEventLocked(j, "failed: "+j.err.Error())
		m.walAppendLocked(j, m.walTerminal(j))
		return false
	}
	j.spec.Instance = in
	j.spec.instJSON = rec.Instance // one WAL line: no newline to compact
	j.instName = in.Name
	j.instKind = in.Kind
	j.state = StateQueued
	ctx, cancel := context.WithCancel(m.baseCtx)
	j.ctx, j.cancel = ctx, cancel
	m.pending++
	m.keyPendingAddLocked(j, 1)
	m.appendEventLocked(j, "queued for "+SolverLabel(j.spec)+" (replayed from WAL)")
	m.enqueueLocked(j)
	return true
}

// replayedJobLocked rebuilds a job's submission identity from a WAL record
// and enters it into the job table. Callers hold m.mu.
func (m *Manager) replayedJobLocked(id string, rec *walRecord) *job {
	j := &job{
		id:        id,
		spec:      JobSpec{Solver: rec.Solver, Label: rec.Label, Key: rec.Key, KeyPending: rec.KeyPending, Params: rec.Params.params()},
		instName:  rec.Name,
		instKind:  kindFromString(rec.Kind),
		submitted: rec.Submitted,
		changed:   make(chan struct{}),
	}
	m.jobs[id] = j
	m.order = append(m.order, id)
	return j
}

// kindFromString parses the Kind string a WAL record stores.
func kindFromString(s string) eblow.Kind {
	if s == eblow.TwoD.String() {
		return eblow.TwoD
	}
	return eblow.OneD
}
