package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"eblow"
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
// manager's lock and the group-commit fsync the ack waits for. The solve is
// a stub that waits for cancellation, and off the clock each job is
// cancelled, so no solver work competes with the submits or counts in
// B/op. Every submitsPerWAL submits the manager starts over on a fresh
// log, so the disk holds a few MB however long the benchmark runs (only a
// finished solve compacts a log).
func BenchmarkSubmitWAL(b *testing.B) {
	const submitsPerWAL = 64
	orig := solveSpec
	defer func() { solveSpec = orig }()
	solveSpec = func(ctx context.Context, _ JobSpec) (*eblow.Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
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

// BenchmarkHandleSubmit posts one plan1d-shaped body through NewHandler
// with a declared Content-Length, as an HTTP client sends it: the body
// read, the parse, the submit (no WAL) and the 202 reply. The solve is a
// stub that waits for cancellation, and off the clock each job is
// cancelled, so no solver work competes with the submits.
func BenchmarkHandleSubmit(b *testing.B) {
	orig := solveSpec
	defer func() { solveSpec = orig }()
	solveSpec = func(ctx context.Context, _ JobSpec) (*eblow.Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	body := plan1dBody(b, false)
	m := New(Config{Workers: 1})
	defer m.Close()
	h := NewHandler(m)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		b.StartTimer()
		h.ServeHTTP(rec, req)
		b.StopTimer()
		var doc struct{ ID string }
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil || rec.Code != http.StatusAccepted {
			b.Fatalf("HTTP %d: %s", rec.Code, rec.Body.Bytes())
		}
		if _, err := m.Cancel(doc.ID); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
