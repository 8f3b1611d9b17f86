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
