package journal_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"eblow/internal/dispatch"
	"eblow/internal/journal"
	"eblow/internal/service"
)

// FuzzWALReplay feeds arbitrary bytes as a pre-existing log to both record
// schemas built on the journal: the service's job log and the dispatcher's.
// Invariants for each: opening never panics, replay is stable across a
// reopen (torn-tail termination changes no record), a record appended
// after the open always replays, and the owner booted from the log
// materializes every job at most once — exactly the resumed plus the
// terminal ones it reports.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("{\"op\":\"accepted\",\"job\":\"j1\",\"solver\":\"auto\",\"instance\":\"bad\"}\n"))
	f.Add([]byte("{\"op\":\"accepted\",\"job\":\"j1\"}\n{\"op\":\"terminal\",\"job\":\"j1\",\"state\":\"done\",\"digest\":\"d\"}\n"))
	f.Add([]byte("{\"op\":\"accepted\",\"job\":\"j2\"}\n{\"op\":\"accep")) // torn tail
	f.Add([]byte("\x00\xff garbage\n{\"op\":\"\",\"job\":\"\"}\n"))
	f.Add([]byte("{\"op\":\"accepted\",\"job\":\"j1\",\"body\":{}}\n{\"op\":\"dispatched\",\"job\":\"j1\",\"node\":\"n1\",\"backendId\":\"j4\"}\n{\"op\":\"term"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		svcPath := filepath.Join(dir, "jobs.wal")
		dispPath := filepath.Join(dir, "dispatch.wal")
		for _, path := range []string{svcPath, dispPath} {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		if w := reopenChecked(t, func() (*service.WAL, error) { return service.OpenWAL(svcPath, 1<<20) }); w != nil {
			m := service.New(service.Config{Workers: 1, WAL: w})
			var ids []string
			for _, s := range m.List() {
				ids = append(ids, s.ID)
			}
			m.Close()
			checkOwner(t, ids, w.Stats())
		}

		if w := reopenChecked(t, func() (*dispatch.WAL, error) { return dispatch.OpenWAL(dispPath) }); w != nil {
			// The node is never contacted: the first probe is an hour away.
			d, err := dispatch.New(dispatch.Config{
				Nodes:          []dispatch.NodeConfig{{Name: "n1", URL: "http://127.0.0.1:1"}},
				HealthInterval: time.Hour,
				WAL:            w,
			})
			if err != nil {
				t.Fatal(err)
			}
			var ids []string
			for _, doc := range d.List() {
				id, _ := doc["id"].(string)
				ids = append(ids, id)
			}
			d.Close()
			checkOwner(t, ids, w.Stats())
		}
	})
}

// reopenChecked opens a log, checks its records, appends a copy of the last
// one, and reopens it: the record count must grow by exactly that append
// and the skipped-line count must not move. It returns the reopened log
// with its replay unconsumed, or nil when the file is refused at the first
// open (refusing is fine; panicking is not).
func reopenChecked[R any](t *testing.T, open func() (*journal.Log[R], error)) *journal.Log[R] {
	t.Helper()
	w, err := open()
	if err != nil {
		return nil
	}
	want := w.Stats()
	recs := w.Replay()
	for _, rec := range recs {
		var head struct{ Op, Job string }
		if b, err := json.Marshal(rec); err != nil || json.Unmarshal(b, &head) != nil || head.Op == "" || head.Job == "" {
			t.Fatalf("malformed record survived replay parsing: %+v", rec)
		}
	}
	if len(recs) > 0 {
		if err := w.Append(recs[len(recs)-1]); err != nil {
			t.Fatal(err)
		}
		want.Records++
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w, err = open(); err != nil {
		t.Fatalf("log opened once but not twice: %v", err)
	}
	if got := w.Stats(); got.Records != want.Records || got.SkippedLines != want.SkippedLines {
		t.Fatalf("replay unstable across reopen: want %+v, got %+v", want, got)
	}
	return w
}

// checkOwner asserts that a manager or dispatcher booted from the log lists
// every job once, exactly the resumed plus the terminal ones.
func checkOwner(t *testing.T, ids []string, st journal.Stats) {
	t.Helper()
	seen := make(map[string]bool, len(ids))
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("job %s materialized twice by replay", id)
		}
		seen[id] = true
	}
	if len(ids) != st.Resumed+st.Terminal {
		t.Fatalf("owner lists %d jobs, replay reports %+v", len(ids), st)
	}
}
