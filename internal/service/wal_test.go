package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"eblow"
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
