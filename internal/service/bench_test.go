package service

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// BenchmarkParseSubmit decodes one plan1d-shaped POST /v1/jobs body (a
// 600-character 10-region instance, ~93 KB): the request, the inline
// instance and its validation.
func BenchmarkParseSubmit(b *testing.B) {
	body := plan1dBody(b, false)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseSubmit(body); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResultDoc encodes the GET /v1/jobs/{id}/result reply of one
// finished plan1d-shaped job (the instance BenchmarkParseSubmit decodes,
// solved by eblow): jobJSON with the full plan, then writeJSON. It reports
// the document's size as doc-B.
func BenchmarkResultDoc(b *testing.B) {
	spec, err := ParseSubmit(plan1dBody(b, false))
	if err != nil {
		b.Fatal(err)
	}
	spec.Solver = "eblow"
	m := New(Config{Workers: 1})
	defer m.Close()
	s, err := m.Submit(spec)
	if err != nil {
		b.Fatal(err)
	}
	s = waitTerminal(b, m, s.ID, time.Minute)
	if s.State != StateDone {
		b.Fatalf("job %s: %s", s.State, s.Err)
	}
	w := &countingWriter{header: http.Header{}}
	writeJSON(w, http.StatusOK, jobJSON(s, true))
	b.SetBytes(int64(w.n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		writeJSON(w, http.StatusOK, jobJSON(s, true))
	}
	b.ReportMetric(float64(w.n), "doc-B")
}

// countingWriter is an http.ResponseWriter that keeps only the size of
// the last reply.
type countingWriter struct {
	header http.Header
	n      int
}

func (w *countingWriter) Header() http.Header { return w.header }
func (w *countingWriter) WriteHeader(int)     { w.n = 0 }
func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// BenchmarkSubmitWAL submits a parsed plan1d-shaped spec to a manager with
// a disk WAL: the accepted record's encoding, its append under the
// manager's lock and the group-commit fsync the ack waits for. Off the
// clock, each job is cancelled so the single worker never competes with
// the submits, and every submitsPerWAL submits the manager starts over on
// a fresh log, so the disk holds a few MB however long the benchmark runs
// (only a finished solve compacts a log).
func BenchmarkSubmitWAL(b *testing.B) {
	const submitsPerWAL = 64
	spec, err := ParseSubmit(plan1dBody(b, false))
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	var m *Manager
	var path string
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%submitsPerWAL == 0 {
			b.StopTimer()
			if m != nil {
				m.Close()
				if err := os.Remove(path); err != nil {
					b.Fatal(err)
				}
			}
			path = filepath.Join(dir, fmt.Sprintf("jobs-%d.wal", i))
			w, err := OpenWAL(path, 0)
			if err != nil {
				b.Fatal(err)
			}
			m = New(Config{Workers: 1, WAL: w})
			b.StartTimer()
		}
		s, err := m.Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if _, err := m.Cancel(s.ID); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	m.Close()
}
