// Package journal is the durable append-only record log behind both eblowd
// write-ahead logs (the solver node's job log and the dispatcher's): one
// JSON record per line, appended through a buffer and fsynced in batches by
// a single flusher goroutine (group commit: a Flush blocks until every
// record appended so far is on disk, and concurrent Flush callers share
// one fsync). Open parses the existing file for a one-shot replay handoff,
// skipping unparseable lines, and terminates a torn tail — the partial last
// line a kill -9 mid-append leaves behind — so the next record starts on
// its own line instead of being glued onto the fragment. A log with a size
// threshold can be compacted: its owner hands CompactTo a snapshot, which
// atomically replaces the file via a temp-file + rename rewrite.
//
// Every record reaches the file through one path, AppendEncoded, as one
// encoded Line: Append is json.Marshal plus AppendEncoded, and an owner
// whose record carries a large value it already holds as JSON (the
// client's instance bytes) hands it over with Splice, as the record's
// header, the value and a closing brace written back to back, so the value
// is neither scanned by json.Marshal nor copied into a line of its own.
//
// The record type is the caller's: a Log[R] knows nothing of record
// semantics beyond the validity predicate given to Open.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// flushInterval bounds how long an appended record may sit in the buffer
// before the background flusher fsyncs it; it is also the worst-case extra
// latency a Flush caller pays for its durability guarantee.
const flushInterval = 5 * time.Millisecond

// ErrClosed is returned by Log operations after Close.
var ErrClosed = errors.New("journal: log is closed")

// Stats summarizes what Open found in the log, plus the owner's replay
// outcome once it consumed the records (see SetReplayStats).
type Stats struct {
	// Records is the number of valid records read at open.
	Records int
	// SkippedLines counts unparseable or invalid lines (typically one torn
	// tail line after a hard kill mid-append); they are ignored, never fatal.
	SkippedLines int
	// Resumed is the number of unfinished jobs the owner picked back up.
	Resumed int
	// Terminal is the number of finished job records the owner restored.
	Terminal int
}

// Log is a durable log of R records. Open it with Open; every method is
// safe for concurrent use.
type Log[R any] struct {
	path     string
	maxBytes int64

	mu sync.Mutex
	// guarded by mu
	f *os.File
	// guarded by mu
	w *bufio.Writer
	// guarded by mu
	size int64
	// guarded by mu
	dirty bool
	// guarded by mu
	waiters []chan error
	// guarded by mu
	closed bool
	// guarded by mu
	compactFloor int64 // minimum size before the next compaction attempt

	kick chan struct{}
	stop chan struct{}
	done chan struct{}

	// guarded by mu — parsed at open, consumed once by Replay
	replay []R
	// guarded by mu
	stats Stats
}

// Open opens (creating if needed) the log at path and parses its existing
// records for Replay. Lines that do not decode as an R, or for which valid
// reports false, are counted in Stats and skipped. maxBytes is the
// compaction threshold (<= 0 never asks for compaction).
func Open[R any](path string, maxBytes int64, valid func(*R) bool) (*Log[R], error) {
	recs, skipped, torn, err := read(path, valid)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: opening %s: %w", path, err)
	}
	if torn {
		// Terminate the fragment so the next record starts on its own line.
		if _, err := f.Write([]byte("\n")); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: terminating torn tail of %s: %w", path, err)
		}
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: opening %s: %w", path, err)
	}
	l := &Log[R]{
		path:     path,
		maxBytes: maxBytes,
		f:        f,
		w:        bufio.NewWriter(f),
		size:     st.Size(),
		kick:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		replay:   recs,
		stats:    Stats{Records: len(recs), SkippedLines: skipped},
	}
	go l.flusher()
	return l, nil
}

// read parses the file at path line by line. torn reports that the file
// does not end in a newline. A missing file is an empty log.
func read[R any](path string, valid func(*R) bool) (recs []R, skipped int, torn bool, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, false, nil
	}
	if err != nil {
		return nil, 0, false, fmt.Errorf("journal: reading %s: %w", path, err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF && len(line) > 0 {
			torn = true
		}
		if len(bytes.TrimSpace(line)) > 0 {
			var rec R
			if json.Unmarshal(line, &rec) != nil || !valid(&rec) {
				skipped++
			} else {
				recs = append(recs, rec)
			}
		}
		if err == io.EOF {
			return recs, skipped, torn, nil
		}
		if err != nil {
			return nil, 0, false, fmt.Errorf("journal: reading %s: %w", path, err)
		}
	}
}

// Stats reports what Open found, plus the replay outcome the owner set.
func (l *Log[R]) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Replay hands the records parsed at Open to the caller, once; later calls
// return nil.
func (l *Log[R]) Replay() []R {
	l.mu.Lock()
	defer l.mu.Unlock()
	recs := l.replay
	l.replay = nil
	return recs
}

// SetReplayStats records how many jobs the owner resumed and restored as
// terminal from the replayed records.
func (l *Log[R]) SetReplayStats(resumed, terminal int) {
	l.mu.Lock()
	l.stats.Resumed, l.stats.Terminal = resumed, terminal
	l.mu.Unlock()
}

// Line is one encoded record: its JSON without a newline, held as parts
// that are written back to back.
type Line [][]byte

// Append buffers one record: its json.Marshal encoding, through
// AppendEncoded. It does not wait for durability — pair it with Flush for
// the group-commit guarantee, or let the background flusher sync it within
// flushInterval.
func (l *Log[R]) Append(rec R) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: encoding record: %w", err)
	}
	return l.AppendEncoded(Line{b})
}

// AppendEncoded buffers one record its owner already encoded (see Splice).
// Like Append, it does not wait for durability.
func (l *Log[R]) AppendEncoded(line Line) error {
	if err := checkLine(line); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	n, err := writeLine(l.w, line)
	if err != nil {
		return fmt.Errorf("journal: appending record: %w", err)
	}
	l.size += n
	l.dirty = true
	l.kickLocked()
	return nil
}

// writeLine writes line's parts and a newline to w and returns the bytes
// written.
func writeLine(w *bufio.Writer, line Line) (int64, error) {
	var size int64
	for _, part := range line {
		n, err := w.Write(part)
		size += int64(n)
		if err != nil {
			return size, err
		}
	}
	return size + 1, w.WriteByte('\n')
}

// errLine rejects a line that would not replay as one record.
var errLine = errors.New("journal: an encoded record must be one non-empty line")

// checkLine rejects a line that would not replay as one record.
func checkLine(line Line) error {
	n := 0
	for _, part := range line {
		if bytes.IndexByte(part, '\n') >= 0 {
			return errLine
		}
		n += len(part)
	}
	if n == 0 {
		return errLine
	}
	return nil
}

// closeBrace is the last part of every spliced Line.
var closeBrace = []byte("}")

// Splice encodes rec with one more top-level field, key, whose value is raw
// as it is: JSON the caller already decoded, so it is neither scanned nor
// escaped again, nor copied. The Line's parts are rec's json.Marshal
// encoding up to and including `"key":`, raw itself, and "}". raw must be a
// single valid JSON value with no newline (compact it if it has one), and
// rec must encode as an object that does not carry key itself. An empty
// raw adds no field.
func Splice(rec any, key string, raw []byte) (Line, error) {
	head, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("journal: encoding record: %w", err)
	}
	if len(raw) == 0 {
		return Line{head}, nil
	}
	if len(head) < 2 || head[len(head)-1] != '}' {
		return nil, fmt.Errorf("journal: record encodes as %.16q, not an object", head)
	}
	name, _ := json.Marshal(key) // a string always encodes
	head = head[:len(head)-1]
	if len(head) > 1 { // "{}" has no field to follow
		head = append(head, ',')
	}
	head = append(append(head, name...), ':')
	return Line{head, raw, closeBrace}, nil
}

// EncodeSpliced returns Splice's line as one buffer, built on its own: the
// reference the byte-identity tests of the logs' spliced records compare
// what they journal against.
func EncodeSpliced(rec any, key string, raw []byte) ([]byte, error) {
	head, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("journal: encoding record: %w", err)
	}
	if len(raw) == 0 {
		return head, nil
	}
	if len(head) < 2 || head[len(head)-1] != '}' {
		return nil, fmt.Errorf("journal: record encodes as %.16q, not an object", head)
	}
	name, _ := json.Marshal(key) // a string always encodes
	line := make([]byte, 0, len(head)+len(name)+len(raw)+2)
	line = append(line, head[:len(head)-1]...)
	if len(head) > 2 { // "{}" has no field to follow
		line = append(line, ',')
	}
	line = append(line, name...)
	line = append(line, ':')
	line = append(line, raw...)
	return append(line, '}'), nil
}

// Flush blocks until every record appended so far is fsynced. Concurrent
// callers coalesce into one fsync (group commit).
func (l *Log[R]) Flush() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if !l.dirty {
		l.mu.Unlock()
		return nil
	}
	ch := make(chan error, 1)
	l.waiters = append(l.waiters, ch)
	l.kickLocked()
	l.mu.Unlock()
	return <-ch
}

func (l *Log[R]) kickLocked() {
	select {
	case l.kick <- struct{}{}:
	default:
	}
}

// flusher is the single goroutine that performs fsyncs: appenders and Flush
// callers only kick it, so any number of concurrent appends share one disk
// sync per cycle.
func (l *Log[R]) flusher() {
	defer close(l.done)
	tick := time.NewTicker(flushInterval)
	defer tick.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-l.kick:
		case <-tick.C:
		}
		l.mu.Lock()
		_ = l.flushLocked() // the waiters, if any, receive the error
		l.mu.Unlock()
	}
}

// flushLocked writes the buffer out, fsyncs, and releases waiters with the
// outcome, which it also returns. Callers hold l.mu.
func (l *Log[R]) flushLocked() error {
	waiters := l.waiters
	l.waiters = nil
	var err error
	if l.dirty {
		if err = l.w.Flush(); err == nil {
			err = l.f.Sync()
		}
		l.dirty = false
	}
	for _, ch := range waiters {
		ch <- err
	}
	return err
}

// NeedsCompact reports whether the log outgrew its threshold. After a
// compaction attempt (successful or not) the log must grow another 25%
// before the next one, so a snapshot that is itself above the threshold —
// or a failing rewrite — cannot trigger a compaction storm.
func (l *Log[R]) NeedsCompact() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return !l.closed && l.maxBytes > 0 && l.size > l.maxBytes && l.size >= l.compactFloor
}

// CompactTo atomically replaces the log with a snapshot, one encoded record
// per line (as AppendEncoded takes them): the lines are written to a temp
// file, fsynced, and renamed over the old log. Any failure leaves the old
// log intact and appendable.
func (l *Log[R]) CompactTo(lines []Line) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	// Whatever happens below, require real growth before trying again.
	defer func() { l.compactFloor = l.size + l.size/4 }()
	// Flush the tail first: a record buffered but unwritten must not be
	// lost if the rewrite fails midway. A failed flush does not stop the
	// rewrite, whose snapshot holds every live job.
	_ = l.flushLocked()

	tmp := l.path + ".compact"
	size, err := writeSnapshot(tmp, lines)
	if err == nil {
		err = os.Rename(tmp, l.path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: compacting %s: %w", l.path, err)
	}
	// Best effort: make the rename itself durable.
	if dir, err := os.Open(filepath.Dir(l.path)); err == nil {
		_ = dir.Sync()
		dir.Close()
	}
	nf, err := os.OpenFile(l.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		// The compacted log is on disk but we lost our handle; keep
		// appending to the old (now unlinked) file so no records vanish,
		// and surface the error.
		return fmt.Errorf("journal: reopening compacted %s: %w", l.path, err)
	}
	old := l.f
	l.f = nf
	l.w = bufio.NewWriter(nf)
	l.size = size
	l.dirty = false
	old.Close()
	return nil
}

// writeSnapshot writes lines to a new file at path and fsyncs it, returning
// its size.
func writeSnapshot(path string, lines []Line) (size int64, err error) {
	for _, line := range lines {
		if err := checkLine(line); err != nil {
			return 0, err
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	for _, line := range lines {
		// A write error sticks and surfaces at Flush.
		n, _ := writeLine(bw, line)
		size += n
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	return size, f.Sync()
}

// Close flushes and fsyncs any buffered records and closes the log.
// Idempotent and safe for concurrent callers: the first caller performs the
// shutdown, later callers wait for the flusher to stop and return nil.
func (l *Log[R]) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		<-l.done
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	close(l.stop)
	<-l.done
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.flushLocked()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
