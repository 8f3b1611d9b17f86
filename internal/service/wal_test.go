package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"eblow"
	"eblow/internal/core"
	"eblow/internal/gen"
	"eblow/internal/journal"
)

// openTestWAL opens a WAL in a per-test temp dir and fails the test on error.
func openTestWAL(t *testing.T, path string) *WAL {
	t.Helper()
	w, err := OpenWAL(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// Jobs interrupted by a shutdown — one mid-solve, the rest still queued —
// must re-enqueue from the WAL in their original submission order and solve
// to completion on the next boot.
func TestWALReplayResumesUnfinishedJobs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	orig := solveSpec
	defer func() { solveSpec = orig }()
	started := make(chan struct{}, 1)
	solveSpec = func(ctx context.Context, spec JobSpec) (*eblow.Result, error) {
		if spec.Label == "blocker" {
			started <- struct{}{}
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return orig(ctx, spec)
	}

	m := New(Config{Workers: 1, WAL: openTestWAL(t, path)})
	specs := []JobSpec{
		{Instance: eblow.SmallInstance(eblow.OneD, 30, 2, 1), Solver: "greedy", Label: "blocker"},
		{Instance: eblow.SmallInstance(eblow.OneD, 30, 2, 2), Solver: "greedy"},
		{Instance: eblow.SmallInstance(eblow.TwoD, 25, 2, 3), Solver: "greedy"},
	}
	var ids []string
	for _, spec := range specs {
		s, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, s.ID)
	}
	<-started // the blocker holds the single worker; the others stay queued
	m.Close()

	// The replayed run solves for real.
	solveSpec = orig
	w2 := openTestWAL(t, path)
	m2 := New(Config{Workers: 1, WAL: w2})
	defer m2.Close()
	if s := w2.Stats(); s.Resumed != len(ids) || s.Terminal != 0 {
		t.Fatalf("replay stats %+v, want %d resumed", s, len(ids))
	}
	for _, id := range ids {
		if s := waitTerminal(t, m2, id, 30*time.Second); s.State != StateDone {
			t.Fatalf("replayed job %s finished %s (%v)", id, s.State, s.Err)
		}
	}
	list := m2.List()
	if len(list) != len(ids) {
		t.Fatalf("replayed manager lists %d jobs, want %d", len(list), len(ids))
	}
	for i, s := range list {
		if s.ID != ids[i] {
			t.Errorf("replayed order[%d] = %s, want %s (submission order)", i, s.ID, ids[i])
		}
	}
	// A fresh submission must not collide with a replayed ID.
	fresh, err := m2.Submit(JobSpec{Instance: eblow.SmallInstance(eblow.OneD, 20, 2, 4), Solver: "greedy"})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if fresh.ID == id {
			t.Fatalf("fresh job reused replayed ID %s", id)
		}
	}
}

// A finished job must stay readable after a restart as a digest-only record:
// same state and digest, result summary present, but no stencil plan.
func TestWALReplayTerminalRecordReadable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	m := New(Config{Workers: 1, WAL: openTestWAL(t, path)})
	s, err := m.Submit(JobSpec{Instance: eblow.SmallInstance(eblow.OneD, 30, 2, 5), Solver: "greedy", Label: "keep"})
	if err != nil {
		t.Fatal(err)
	}
	done := waitTerminal(t, m, s.ID, 30*time.Second)
	if done.State != StateDone || done.Digest == "" {
		t.Fatalf("job finished %s with digest %q", done.State, done.Digest)
	}
	m.Close()

	w2 := openTestWAL(t, path)
	m2 := New(Config{Workers: 1, WAL: w2})
	defer m2.Close()
	if st := w2.Stats(); st.Terminal != 1 || st.Resumed != 0 {
		t.Fatalf("replay stats %+v, want 1 terminal", st)
	}
	got, err := m2.Status(s.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone || !got.Replayed {
		t.Fatalf("replayed record: state %s, replayed %v", got.State, got.Replayed)
	}
	if got.Digest != done.Digest {
		t.Errorf("replayed digest %q, original %q", got.Digest, done.Digest)
	}
	if got.Label != "keep" || got.Instance != done.Instance {
		t.Errorf("replayed identity lost: label %q, instance %q", got.Label, got.Instance)
	}
	if got.Result == nil || got.Result.Solution != nil {
		t.Errorf("replayed result should be a summary without the plan, got %+v", got.Result)
	}
	if got.Result != nil && got.Result.Objective != done.Result.Objective {
		t.Errorf("replayed objective %d, original %d", got.Result.Objective, done.Result.Objective)
	}
}

// A torn tail line — the footprint of kill -9 mid-append — must be skipped,
// not fail the open, and the intact records before it must replay. A job
// submitted after that boot must survive the next restart too: its
// accepted record may not be glued onto the torn fragment.
func TestWALTornTailSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	m := New(Config{Workers: 1, WAL: openTestWAL(t, path)})
	s, err := m.Submit(JobSpec{Instance: eblow.SmallInstance(eblow.OneD, 30, 2, 6), Solver: "greedy"})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, s.ID, 30*time.Second)
	m.Close()

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"terminal","job":"j9","sta`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	orig := solveSpec
	defer func() { solveSpec = orig }()
	started := make(chan struct{}, 1)
	solveSpec = func(ctx context.Context, spec JobSpec) (*eblow.Result, error) {
		started <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	}
	w2 := openTestWAL(t, path)
	m2 := New(Config{Workers: 1, WAL: w2})
	st := w2.Stats()
	if st.SkippedLines != 1 {
		t.Errorf("skipped lines %d, want 1", st.SkippedLines)
	}
	if got, err := m2.Status(s.ID); err != nil || !got.State.Terminal() {
		t.Errorf("record before the torn tail unreadable: %+v, %v", got, err)
	}
	if _, err := m2.Status("j9"); err == nil {
		t.Error("torn record materialized a job")
	}
	// Interrupt a fresh job mid-solve: only its accepted record is on disk.
	fresh, err := m2.Submit(JobSpec{Instance: eblow.SmallInstance(eblow.OneD, 30, 2, 7), Solver: "greedy"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	m2.Close()

	w3 := openTestWAL(t, path)
	m3 := New(Config{Workers: 1, WAL: w3})
	defer m3.Close()
	if st := w3.Stats(); st.Resumed != 1 || st.SkippedLines != 1 {
		t.Fatalf("replay after the torn-tail boot: %+v, want 1 resumed job and 1 skipped line", st)
	}
	<-started // the interrupted job re-runs from its accepted record
	if got, err := m3.Status(fresh.ID); err != nil || got.State.Terminal() {
		t.Fatalf("job submitted after the torn tail did not replay: %+v, %v", got, err)
	}
}

// Once the log outgrows its threshold it must compact to a snapshot — fewer
// records on the next open, with every job still readable.
func TestWALCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	w, err := OpenWAL(path, 2048) // tiny threshold: a few accepted records exceed it
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{Workers: 1, WAL: w})
	const n = 6
	var ids []string
	for i := 0; i < n; i++ {
		s, err := m.Submit(JobSpec{Instance: eblow.SmallInstance(eblow.OneD, 30, 2, int64(i+10)), Solver: "greedy"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, s.ID)
	}
	for _, id := range ids {
		waitTerminal(t, m, id, 30*time.Second)
	}
	m.Close()

	w2 := openTestWAL(t, path)
	m2 := New(Config{Workers: 1, WAL: w2})
	defer m2.Close()
	// Without compaction every job leaves accepted+started+terminal records.
	if st := w2.Stats(); st.Records >= 3*n {
		t.Errorf("log never compacted: %d records for %d jobs", st.Records, n)
	}
	for _, id := range ids {
		got, err := m2.Status(id)
		if err != nil {
			t.Fatalf("job %s lost in compaction: %v", id, err)
		}
		if got.State != StateDone || got.Digest == "" {
			t.Errorf("job %s replayed as %s with digest %q", id, got.State, got.Digest)
		}
	}
}

// The crash-consistency core: a run interrupted mid-queue and replayed must
// produce the same result digests as an uninterrupted run of the same specs,
// and the queue order must survive the replay.
func TestWALReplayDeterministicDigests(t *testing.T) {
	mkSpecs := func() []JobSpec {
		return []JobSpec{
			{Instance: eblow.SmallInstance(eblow.OneD, 40, 2, 21), Params: eblow.Params{Seed: 7}},
			{Instance: eblow.SmallInstance(eblow.TwoD, 30, 2, 22), Params: eblow.Params{Seed: 7}},
			{Instance: eblow.SmallInstance(eblow.OneD, 50, 2, 23), Solver: "greedy"},
		}
	}

	// Reference: uninterrupted run.
	ref := New(Config{Workers: 1})
	want := make(map[string]string) // instance name -> digest
	for _, spec := range mkSpecs() {
		s, err := ref.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		done := waitTerminal(t, ref, s.ID, time.Minute)
		if done.State != StateDone {
			t.Fatalf("reference job %s finished %s (%v)", s.ID, done.State, done.Err)
		}
		want[done.Instance] = done.Digest
	}
	ref.Close()

	// Interrupted run: a blocker pins the worker so the real jobs are still
	// queued when the manager shuts down.
	path := filepath.Join(t.TempDir(), "jobs.wal")
	orig := solveSpec
	defer func() { solveSpec = orig }()
	started := make(chan struct{}, 1)
	solveSpec = func(ctx context.Context, spec JobSpec) (*eblow.Result, error) {
		if spec.Label == "blocker" {
			started <- struct{}{}
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return orig(ctx, spec)
	}
	m := New(Config{Workers: 1, WAL: openTestWAL(t, path)})
	if _, err := m.Submit(JobSpec{Instance: eblow.SmallInstance(eblow.OneD, 20, 2, 20), Solver: "greedy", Label: "blocker"}); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, spec := range mkSpecs() {
		s, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, s.ID)
	}
	<-started
	m.Close()

	solveSpec = orig
	m2 := New(Config{Workers: 1, WAL: openTestWAL(t, path)})
	defer m2.Close()
	for _, id := range ids {
		done := waitTerminal(t, m2, id, time.Minute)
		if done.State != StateDone {
			t.Fatalf("replayed job %s finished %s (%v)", id, done.State, done.Err)
		}
		if want[done.Instance] == "" {
			t.Fatalf("no reference digest for instance %q", done.Instance)
		}
		if done.Digest != want[done.Instance] {
			t.Errorf("instance %q: replayed digest %s, uninterrupted run %s",
				done.Instance, done.Digest, want[done.Instance])
		}
	}
}

// Submit must not acknowledge before the accepted record is on disk: the
// record must be parseable from the file the moment Submit returns.
func TestWALSubmitAckIsDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	m := New(Config{Workers: 1, WAL: openTestWAL(t, path)})
	defer m.Close()
	s, err := m.Submit(JobSpec{Instance: eblow.SmallInstance(eblow.OneD, 30, 2, 30), Solver: "greedy"})
	if err != nil {
		t.Fatal(err)
	}
	// Read the file directly, before the job finishes or the WAL closes.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, line := range bytes.Split(data, []byte("\n")) {
		var rec walRecord
		if json.Unmarshal(line, &rec) == nil && rec.Op == walOpAccepted && rec.Job == s.ID {
			found = true
			if len(rec.Instance) == 0 {
				t.Error("accepted record has no instance payload")
			}
		}
	}
	if !found {
		t.Fatalf("accepted record for %s not on disk when Submit returned", s.ID)
	}
	waitTerminal(t, m, s.ID, 30*time.Second)
}

// Job-log operations after Close must fail cleanly, and Close must be
// idempotent.
func TestWALClosed(t *testing.T) {
	w := openTestWAL(t, filepath.Join(t.TempDir(), "jobs.wal"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if err := w.Append(walRecord{Op: walOpStarted, Job: "j1"}); !errors.Is(err, journal.ErrClosed) {
		t.Errorf("Append after Close: %v", err)
	}
	if err := w.Flush(); !errors.Is(err, journal.ErrClosed) {
		t.Errorf("Flush after Close: %v", err)
	}
}

// Concurrent Close calls on the job log must not race on the stop channel
// (close of a closed channel panics); every caller returns without error.
func TestWALCloseConcurrent(t *testing.T) {
	w := openTestWAL(t, filepath.Join(t.TempDir(), "jobs.wal"))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Close(); err != nil {
				t.Errorf("concurrent Close: %v", err)
			}
		}()
	}
	wg.Wait()
}

// A WAL written by the previous encoder (the instance re-encoded by
// EncodeInstance and compacted by json.Marshal, with the record fields in
// struct order) replays unchanged: testdata/parent.wal holds two finished
// jobs, one cut off mid-solve by a shutdown, one still queued and one
// cancelled while queued. The finished jobs keep their logged digests and
// the unfinished ones re-solve to the digests of an uninterrupted run.
func TestWALParentFixtureReplays(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "parent.wal"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "jobs.wal")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	w := openTestWAL(t, path)
	m := New(Config{Workers: 1, WAL: w})
	defer m.Close()
	if s := w.Stats(); s.Records != 11 || s.SkippedLines != 0 || s.Resumed != 2 || s.Terminal != 3 {
		t.Fatalf("replay stats %+v, want 11 records, 2 resumed, 3 terminal", s)
	}
	want := []struct {
		id, instance, key string
		state             State
		replayed          bool
		digest            string
	}{
		{"j1", "small-1DOSP-30", "", StateDone, true, "386cede5c78cb64f75eadab26ee679e0b0c916c968a575e9580b38ec9f6c67af"},
		{"j2", "small-2DOSP-12", "tenant", StateDone, true, "042319ad6dc1f2780775baf5eea3d0c7fafd6e7704fafa4101abfcffee424bfb"},
		{"j3", "small-1DOSP-20", "", StateDone, false, "ab3df8290e4f67433f6a1c939c3a4b365587983ef5f6f5f30de718faea32a2bd"},
		{"j4", "small-1DOSP-24", "", StateDone, false, "755004bb3bb8e5eed616e8fd74e295a5de31d1bc2a3101c26182d7168ecb78c5"},
		{"j5", "small-1DOSP-22", "", StateCanceled, true, ""},
	}
	for _, wj := range want {
		waitTerminal(t, m, wj.id, 30*time.Second)
	}
	list := m.List()
	if len(list) != len(want) {
		t.Fatalf("replayed table has %d jobs, want %d", len(list), len(want))
	}
	for i, wj := range want {
		s := list[i]
		if s.ID != wj.id || s.Instance != wj.instance || s.Key != wj.key || s.State != wj.state ||
			s.Replayed != wj.replayed || s.Digest != wj.digest {
			t.Errorf("job %d = {%s %s key=%q %s replayed=%v %s}, want %+v",
				i, s.ID, s.Instance, s.Key, s.State, s.Replayed, s.Digest, wj)
		}
	}
	if s, err := m.Submit(JobSpec{Instance: eblow.SmallInstance(eblow.OneD, 20, 2, 9), Solver: "greedy"}); err != nil || s.ID != "j6" {
		t.Fatalf("first submit after the replay: %s, %v; want j6", s.ID, err)
	}
}

// plan1dBody renders a POST /v1/jobs body shaped like the benchmark's
// plan1d jobs: a 600-character 10-region 1D instance, inline. indent keeps
// the instance as EncodeInstance writes it instead of compacting it.
func plan1dBody(t testing.TB, indent bool) []byte {
	t.Helper()
	in := gen.Generate(gen.Params{
		Kind: core.OneD, NumChars: 600, NumRegions: 10,
		StencilW: 800, StencilH: 800, RowHeight: 40,
		MinWidth: 28, MaxWidth: 44, MinBlank: 4, MaxBlank: 14,
		MinShots: 2, MaxShots: 60, ShotAreaUnit: 45,
		MaxRepeat: 25, RegionSkew: 0.85, Seed: 1,
	})
	in.Name = "plan1d-0"
	var inst bytes.Buffer
	if err := eblow.EncodeInstance(&inst, in); err != nil {
		t.Fatal(err)
	}
	if indent {
		return []byte(`{"instance": ` + inst.String() + `, "solver": "greedy", "label": "plan1d/0", "params": {"workers": 1, "seed": 1}}`)
	}
	body, err := json.Marshal(map[string]any{
		"instance": json.RawMessage(inst.Bytes()), "solver": "greedy", "label": "plan1d/0",
		"params": map[string]int{"workers": 1, "seed": 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// walHeaderBytes bounds an accepted record's bytes besides the instance:
// op, job, times, name, kind, solver, label and params.
const walHeaderBytes = 320

// The accepted record journals the instance bytes the client sent, on one
// line: for a compact plan1d-shaped body the line is the request plus at
// most a record header, and for an indented body it is smaller than the
// request (the indentation is compacted away, never re-encoded).
func TestWALAcceptedRecordIsRequestSized(t *testing.T) {
	for _, indent := range []bool{false, true} {
		body := plan1dBody(t, indent)
		path := filepath.Join(t.TempDir(), "jobs.wal")
		m := New(Config{Workers: 1, WAL: openTestWAL(t, path)})
		s, err := m.WireSubmit(context.Background(), body)
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, m, s.(map[string]any)["id"].(string), 30*time.Second)
		m.Close()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		line, _, _ := bytes.Cut(data, []byte("\n"))
		var rec walRecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.Op != walOpAccepted {
			t.Fatalf("first WAL line is not an accepted record: %v", err)
		}
		var sent struct{ Instance json.RawMessage }
		if err := json.Unmarshal(body, &sent); err != nil {
			t.Fatal(err)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, sent.Instance); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec.Instance, compact.Bytes()) {
			t.Errorf("indent=%v: the record's instance is not the client's compacted bytes", indent)
		}
		if limit := compact.Len() + walHeaderBytes; len(line) > limit {
			t.Errorf("indent=%v: accepted record is %d bytes, want at most %d (instance %d + header)", indent, len(line), limit, compact.Len())
		}
		if indent && len(line) >= len(body) {
			t.Errorf("accepted record is %d bytes for an indented %d-byte request", len(line), len(body))
		}
		t.Logf("indent=%v: request %d bytes, accepted record %d bytes", indent, len(body), len(line))
	}
}

// instanceBytes reports whether the job still holds its instance JSON.
func instanceBytes(m *Manager, id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.jobs[id].spec.instJSON != nil
}

// Live jobs keep the instance bytes they were submitted with, so a
// compaction journals them again without re-encoding; a terminal job holds
// none, so a finished record pins no copy of its request for the record
// TTL.
func TestTerminalJobDropsInstanceBytes(t *testing.T) {
	orig := solveSpec
	defer func() { solveSpec = orig }()
	started := make(chan string, 2)
	release := make(chan struct{})
	solveSpec = func(ctx context.Context, spec JobSpec) (*eblow.Result, error) {
		switch spec.Label {
		case "gate": // runs once released
			started <- spec.Label
			<-release
		case "hold": // runs until the shutdown
			started <- spec.Label
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return orig(ctx, spec)
	}
	path := filepath.Join(t.TempDir(), "jobs.wal")
	w, err := OpenWAL(path, 2048) // tiny threshold: every finish compacts
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{Workers: 1, WAL: w})
	submit := func(body string) string {
		t.Helper()
		doc, err := m.WireSubmit(context.Background(), []byte(body))
		if err != nil {
			t.Fatal(err)
		}
		return doc.(map[string]any)["id"].(string)
	}
	holds := func(want map[string]bool) {
		t.Helper()
		for id, w := range want {
			if got := instanceBytes(m, id); got != w {
				t.Errorf("job %s holds instance bytes: %v, want %v", id, got, w)
			}
		}
	}
	done := submit(`{"benchmark": "1T-1", "solver": "greedy"}`) // bytes encoded in-process
	waitTerminal(t, m, done, 30*time.Second)
	var inst bytes.Buffer
	if err := eblow.EncodeInstance(&inst, eblow.SmallInstance(eblow.OneD, 30, 2, 4)); err != nil {
		t.Fatal(err)
	}
	inline := func(label string) string {
		return `{"instance": ` + inst.String() + `, "solver": "greedy", "label": "` + label + `"}`
	}
	gate := submit(inline("gate"))
	<-started
	hold := submit(inline("hold"))
	cancelled := submit(inline("cancelled"))
	if _, err := m.Cancel(cancelled); err != nil {
		t.Fatal(err)
	}
	holds(map[string]bool{done: false, gate: true, hold: true, cancelled: false})
	close(release) // gate finishes and compacts the log around the live hold
	waitTerminal(t, m, gate, 30*time.Second)
	<-started
	holds(map[string]bool{gate: false, hold: true})
	m.Close()

	// The log was compacted with hold live (uncompacted, the four jobs
	// leave 10 records); hold re-runs from its journalled bytes.
	solveSpec = orig
	w2 := openTestWAL(t, path)
	m2 := New(Config{Workers: 1, WAL: w2})
	defer m2.Close()
	if s := w2.Stats(); s.Records >= 10 || s.Resumed != 1 || s.Terminal != 3 {
		t.Errorf("reopened log %+v, want a compacted log with 1 resumed and 3 terminal jobs", s)
	}
	if s := waitTerminal(t, m2, hold, 30*time.Second); s.State != StateDone || s.Replayed {
		t.Errorf("job %s re-ran as %s (replayed=%v, %v)", hold, s.State, s.Replayed, s.Err)
	}
	if instanceBytes(m2, hold) {
		t.Errorf("re-run job %s still holds its instance bytes", hold)
	}
}

// Every eblow.Params field must survive the WAL, or a replayed job runs
// with other settings than the one submitted and may plan differently. The
// one exception changes neither plan nor digest.
func TestWALParamsRoundTripEveryField(t *testing.T) {
	digestNeutral := map[string]bool{"CollectTrace": true}
	typ := reflect.TypeOf(eblow.Params{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if digestNeutral[f.Name] {
			continue
		}
		var p eblow.Params
		v := reflect.ValueOf(&p).Elem().Field(i)
		switch f.Type.Kind() {
		case reflect.Int, reflect.Int64:
			v.SetInt(7)
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Slice:
			v.Set(reflect.ValueOf([]string{"greedy", "row25"}))
		case reflect.Pointer:
			v.Set(reflect.New(f.Type.Elem()))
		default:
			t.Fatalf("Params.%s: no sample value for kind %s", f.Name, f.Type.Kind())
		}
		data, err := json.Marshal(toWalParams(p))
		if err != nil {
			t.Fatal(err)
		}
		var back walParams
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if got := reflect.ValueOf(back.params()).Field(i); !reflect.DeepEqual(got.Interface(), v.Interface()) {
			t.Errorf("Params.%s = %v does not survive the WAL: replayed as %v", f.Name, v, got)
		}
	}
}
