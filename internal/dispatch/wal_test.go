package dispatch

import (
	"path/filepath"
	"testing"
	"time"
)

func TestWALAppendLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dispatch.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := []walRecord{
		{Op: walOpAccepted, Job: "j1", Time: time.Unix(10, 0).UTC(), Body: []byte(`{"benchmark":"1T-1"}`), RoutingKey: "rk", Name: "1T-1", Kind: "1D", Solver: "greedy"},
		{Op: walOpDispatched, Job: "j1", Node: "a", BackendID: "j1"},
		{Op: walOpTerminal, Job: "j1", Node: "a", BackendID: "j1", State: "done", Digest: "sha"},
	}
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if s := w2.Stats(); s.Records != 3 || s.SkippedLines != 0 {
		t.Fatalf("Stats = %+v, want 3 records, 0 skipped", s)
	}
	got := w2.Replay()
	if len(got) != 3 || got[0].Op != walOpAccepted || got[2].Digest != "sha" {
		t.Fatalf("Replay = %+v", got)
	}
	if string(got[0].Body) != `{"benchmark":"1T-1"}` {
		t.Fatalf("accepted body = %s", got[0].Body)
	}
	if again := w2.Replay(); again != nil {
		t.Fatalf("Replay must hand the log over once, got %d more", len(again))
	}
}

// Submit journals the body's JSON value on one line: an indented body is
// compacted, and bytes after the request object (which the parser never
// reads) are dropped instead of failing the WAL append. The job record
// forwards the same bytes, so the job still runs.
func TestSubmitJournalsBodyValue(t *testing.T) {
	_, cfgs := newFleet(t, 1, 1)
	path := filepath.Join(t.TempDir(), "dispatch.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{Nodes: cfgs, HealthInterval: 25 * time.Millisecond, FailAfter: 3, WAL: w})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := d.Submit([]byte("{\n  \"benchmark\": \"1T-1\",\r\n  \"solver\": \"greedy\"\n} trailing"))
	if err != nil {
		t.Fatal(err)
	}
	if s := waitDispatchTerminal(t, d, doc["id"].(string), 60*time.Second); s["state"] != "done" {
		t.Fatalf("job finished %v", s["state"])
	}
	d.Close()

	w2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	recs := w2.Replay()
	if len(recs) == 0 || recs[0].Op != walOpAccepted {
		t.Fatalf("Replay = %+v, want the accepted record first", recs)
	}
	if got, want := string(recs[0].Body), `{"benchmark":"1T-1","solver":"greedy"}`; got != want {
		t.Fatalf("accepted body = %s, want %s", got, want)
	}
}
