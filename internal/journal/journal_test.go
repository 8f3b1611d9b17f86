package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

type rec struct {
	Op  string `json:"op"`
	Job string `json:"job"`
}

func (r *rec) valid() bool { return r.Op != "" && r.Job != "" }

func openTest(t *testing.T, path string, maxBytes int64) *Log[rec] {
	t.Helper()
	l, err := Open(path, maxBytes, (*rec).valid)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// encodeAll encodes recs as CompactTo takes them, one line per record.
func encodeAll(t *testing.T, recs ...rec) []Line {
	t.Helper()
	lines := make([]Line, len(recs))
	for i, r := range recs {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = Line{b}
	}
	return lines
}

func appendAll(t *testing.T, l *Log[rec], recs ...rec) {
	t.Helper()
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
}

// A kill -9 mid-append leaves a partial last line. Open must skip it, and
// terminate it so that a record appended afterwards replays intact instead
// of being glued onto the fragment.
func TestTornTailTerminated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, []byte(`{"op":"accepted","job":"j1"}`+"\n"+`{"op":"terminal","job":"j1","sta`), 0o644); err != nil {
		t.Fatal(err)
	}
	l := openTest(t, path, 0)
	if s := l.Stats(); s.Records != 1 || s.SkippedLines != 1 {
		t.Fatalf("Stats = %+v, want 1 record, 1 skipped line", s)
	}
	appendAll(t, l, rec{Op: "accepted", Job: "j2"})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := openTest(t, path, 0)
	if s := l2.Stats(); s.Records != 2 || s.SkippedLines != 1 {
		t.Fatalf("Stats after reopen = %+v, want 2 records, 1 skipped line", s)
	}
	got := l2.Replay()
	if len(got) != 2 || got[0] != (rec{"accepted", "j1"}) || got[1] != (rec{"accepted", "j2"}) {
		t.Fatalf("Replay = %+v", got)
	}
	if again := l2.Replay(); again != nil {
		t.Fatalf("Replay must hand the records over once, got %d more", len(again))
	}
}

// Concurrent Flush callers must share one fsync. The flusher is paused so
// every caller is provably waiting before the single flush cycle runs.
func TestFlushGroupCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l := openTest(t, path, 0)
	close(l.stop)
	<-l.done
	l.stop = make(chan struct{}) // Close closes it again

	const n = 16
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			if err := l.Append(rec{Op: "accepted", Job: string(rune('a' + i))}); err != nil {
				errs <- err
				return
			}
			errs <- l.Flush()
		}(i)
	}
	for {
		l.mu.Lock()
		waiting := len(l.waiters)
		l.mu.Unlock()
		if waiting == n {
			break
		}
		runtime.Gosched()
	}
	l.mu.Lock()
	err := l.flushLocked() // one cycle: one write-out, one fsync
	l.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("Flush: %v", err)
		}
	}
	if s := openTest(t, path, 0).Stats(); s.Records != n {
		t.Fatalf("%d records on disk after the shared fsync, want %d", s.Records, n)
	}
}

// A compaction that cannot write its snapshot must leave the old log intact
// and appendable; a later one replaces it with the snapshot.
func TestCompactionFailureKeepsLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l := openTest(t, path, 64)
	appendAll(t, l, rec{"accepted", "j1"}, rec{"started", "j1"}, rec{"terminal", "j1"}, rec{"accepted", "j2"})
	if !l.NeedsCompact() {
		t.Fatal("a log past its threshold does not ask for compaction")
	}
	if err := os.Mkdir(path+".compact", 0o755); err != nil { // the temp file cannot be created
		t.Fatal(err)
	}
	if err := l.CompactTo(encodeAll(t, rec{"terminal", "j1"})); err == nil {
		t.Fatal("CompactTo succeeded without a writable temp file")
	}
	if l.NeedsCompact() {
		t.Error("a failed compaction must wait for further growth before retrying")
	}
	appendAll(t, l, rec{"started", "j2"})
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if s := openTest(t, path, 0).Stats(); s.Records != 5 || s.SkippedLines != 0 {
		t.Fatalf("after the failed compaction: %+v, want the 5 original records", s)
	}

	if err := os.RemoveAll(path + ".compact"); err != nil {
		t.Fatal(err)
	}
	if err := l.CompactTo(encodeAll(t, rec{"terminal", "j1"}, rec{"accepted", "j2"})); err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, rec{"started", "j2"})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	want := []rec{{"terminal", "j1"}, {"accepted", "j2"}, {"started", "j2"}}
	got := openTest(t, path, 0).Replay()
	if len(got) != len(want) {
		t.Fatalf("after compaction: %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after compaction: %+v, want %+v", got, want)
		}
	}
}

// Operations after Close fail with ErrClosed, and Close is idempotent, also
// for concurrent callers (a double close of the stop channel would panic).
func TestClosed(t *testing.T) {
	l := openTest(t, filepath.Join(t.TempDir(), "log"), 0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := l.Close(); err != nil {
				t.Errorf("concurrent Close: %v", err)
			}
		}()
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Errorf("Close after Close: %v", err)
	}
	if err := l.Append(rec{"started", "j1"}); !errors.Is(err, ErrClosed) {
		t.Errorf("Append after Close: %v", err)
	}
	if err := l.Flush(); !errors.Is(err, ErrClosed) {
		t.Errorf("Flush after Close: %v", err)
	}
	if err := l.CompactTo(nil); !errors.Is(err, ErrClosed) {
		t.Errorf("CompactTo after Close: %v", err)
	}
}

// A spliced record is written as EncodeSpliced's one-buffer line and
// replays like its json.Marshal twin, and an encoded line that would split
// into two records, or be empty, is refused before it reaches the file.
func TestAppendEncoded(t *testing.T) {
	type big struct {
		Op   string          `json:"op"`
		Job  string          `json:"job"`
		Body json.RawMessage `json:"body,omitempty"`
	}
	path := filepath.Join(t.TempDir(), "log")
	l, err := Open(path, 0, func(r *big) bool { return r.Op != "" })
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	raw := []byte(`{"name":"a<b&c","xs":[1,2,3]}`)
	want, err := EncodeSpliced(big{Op: "accepted", Job: "j1"}, "body", raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(want, append(append([]byte(`"body":`), raw...), '}')) {
		t.Fatalf("spliced line %s does not end in the raw value", want)
	}
	line, err := Splice(big{Op: "accepted", Job: "j1"}, "body", raw)
	if err != nil {
		t.Fatal(err)
	}
	if got := bytes.Join(line, nil); !bytes.Equal(got, want) {
		t.Fatalf("Splice parts join to %s, want %s", got, want)
	}
	if &line[1][0] != &raw[0] {
		t.Error("Splice copied the raw value")
	}
	if err := l.AppendEncoded(line); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Line{{[]byte(`{"op":"accepted",`), []byte("\n\"job\":\"j2\"}")}, {}, {nil, []byte{}}} {
		if err := l.AppendEncoded(bad); err == nil {
			t.Errorf("AppendEncoded took the line %q", bad)
		}
	}
	if err := l.Append(big{Op: "started", Job: "j1"}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(path, 0, func(r *big) bool { return r.Op != "" })
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if first, _, _ := bytes.Cut(data, []byte("\n")); !bytes.Equal(first, want) {
		t.Fatalf("journaled %s, want %s", first, want)
	}
	got := l2.Replay()
	if len(got) != 2 || got[0].Job != "j1" || string(got[0].Body) != string(raw) || got[1].Op != "started" {
		t.Fatalf("replayed %+v, want the spliced accepted record then started", got)
	}
	if s := l2.Stats(); s.SkippedLines != 0 {
		t.Fatalf("Stats = %+v, want no skipped line", s)
	}
}
