package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"eblow"
	"eblow/internal/journal"
)

// blockSolves makes every solve wait for its job's cancellation, so
// submitted jobs stay live until the manager closes.
func blockSolves(t *testing.T) {
	orig := solveSpec
	t.Cleanup(func() { solveSpec = orig })
	solveSpec = func(ctx context.Context, _ JobSpec) (*eblow.Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
}

// walLines returns the lines of the log at path, and its accepted records
// in order.
func walLines(t *testing.T, path string) (lines, accepted [][]byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines = bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	for _, line := range lines {
		if bytes.HasPrefix(line, []byte(`{"op":"accepted",`)) {
			accepted = append(accepted, line)
		}
	}
	return lines, accepted
}

// The accepted record reaches the log as journal.Splice's parts, never
// copied into one line, and its bytes are journal.EncodeSpliced's line —
// what the log held before — both as appended at submit and as a compaction
// snapshot rewrites it. The labels cover an empty one, one json.Marshal
// escapes ('"', '<', '&') and non-ASCII; the last instance is indented, so
// ParseSubmit compacts it before it is journaled.
func TestWALAcceptedRecordBytes(t *testing.T) {
	blockSolves(t)
	var inst, compact bytes.Buffer
	if err := eblow.EncodeInstance(&inst, eblow.SmallInstance(eblow.OneD, 6, 2, 1)); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&compact, inst.Bytes()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "jobs.wal")
	w, err := OpenWAL(path, 1) // any live job is over the compaction threshold
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{Workers: 1, WAL: w})
	defer m.Close()
	var want [][]byte
	for _, c := range []struct {
		label    string
		instance []byte
	}{
		{"", compact.Bytes()},
		{`say "hi"`, compact.Bytes()},
		{"<a>&b", compact.Bytes()},
		{"café ☃", compact.Bytes()},
		{"indented", inst.Bytes()},
	} {
		label, err := json.Marshal(c.label)
		if err != nil {
			t.Fatal(err)
		}
		body := []byte(`{"instance":` + string(c.instance) + `,"solver":"greedy","label":` + string(label) + `}`)
		doc, err := m.WireSubmit(context.Background(), body)
		if err != nil {
			t.Fatal(err)
		}
		m.mu.Lock()
		j := m.jobs[doc.(map[string]any)["id"].(string)]
		rec := walRecord{Op: walOpAccepted, Time: j.submitted}
		m.walIdentity(j, &rec)
		line, err := journal.EncodeSpliced(rec, "instance", j.spec.instJSON)
		compacted := bytes.Equal(j.spec.instJSON, compact.Bytes())
		m.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if !compacted {
			t.Fatalf("label %q: the job holds other instance bytes than the compacted instance", c.label)
		}
		want = append(want, line)
	}
	check := func(when string) (lines int) {
		t.Helper()
		all, got := walLines(t, path)
		if len(got) != len(want) {
			t.Fatalf("%s: %d accepted records, want %d", when, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("%s: accepted record %d is\n%s\nwant\n%s", when, i, got[i], want[i])
			}
		}
		return len(all)
	}
	check("appended")
	m.mu.Lock()
	m.maybeCompactWALLocked()
	m.mu.Unlock()
	if lines := check("compacted"); lines != len(want) {
		t.Fatalf("the compacted log has %d lines, want one accepted record per live job (%d)", lines, len(want))
	}
}

// resultDigestRef is resultDigest as it hashed a json.Marshal copy of the
// plan: the reference for the digests the logs and digest books hold.
func resultDigestRef(t *testing.T, instance string, res *eblow.Result) string {
	t.Helper()
	if res == nil {
		return ""
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s|%d|%v\n", instance, res.Strategy, res.Objective, res.Feasible)
	if res.Solution != nil {
		s := *res.Solution
		s.Runtime = 0
		b, err := json.Marshal(&s)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// resultDigest streams the plan's encoding into the hash; it must hash
// exactly json.Marshal's bytes: on solved 1D and 2D plans, on a plan with
// nil rows, placements and region times, on a nonzero Runtime (which both
// leave out), and without a plan or a result.
func TestResultDigestMatchesMarshal(t *testing.T) {
	var results []*eblow.Result
	for _, in := range []*eblow.Instance{eblow.SmallInstance(eblow.OneD, 30, 3, 1), eblow.SmallInstance(eblow.TwoD, 12, 2, 1)} {
		res, err := solveSpec(context.Background(), JobSpec{Instance: in, Solver: "greedy", Params: eblow.Params{Workers: 1}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Solution.Runtime == 0 {
			res.Solution.Runtime = 1234 * time.Microsecond
		}
		results = append(results, res)
	}
	results = append(results,
		&eblow.Result{Strategy: "greedy", Objective: 7, Solution: &eblow.Solution{Algorithm: "empty", Selected: []bool{false, true}, Runtime: time.Second}},
		&eblow.Result{Strategy: "exact", Objective: 3, Feasible: true},
		nil)
	for i, res := range results {
		got, want := resultDigest("inst<&>", res), resultDigestRef(t, "inst<&>", res)
		if got != want {
			t.Errorf("result %d: digest %s, json.Marshal reference %s", i, got, want)
		}
	}
}

// TestSubmitPathAllocs caps the allocations of the per-job steps on a
// node's submit and finish path, each at its count measured with Go 1.24
// plus at most 25%: the plan1d-shaped body's parse (27: the characters'
// exact copy, the doubling blocks of the shared repeats array and of the
// names, and the overflows at the blocks' ends), the plan's
// validation (1: the placed set), its digest (9) and the accepted record's
// append (9: the small header; the instance bytes are not copied). CI runs
// it on Go 1.24 only, outside the race steps, whose instrumentation
// allocates.
func TestSubmitPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	body := plan1dBody(t, false)
	spec, err := ParseSubmit(body)
	if err != nil {
		t.Fatal(err)
	}
	res, err := solveSpec(context.Background(), JobSpec{Instance: spec.Instance, Solver: "eblow", Params: eblow.Params{Workers: 1, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	w, err := OpenWAL(filepath.Join(t.TempDir(), "jobs.wal"), 0)
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{Workers: 1, WAL: w})
	defer m.Close()
	blockSolves(t)
	status, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	j := m.jobs[status.ID]
	m.mu.Unlock()

	for _, c := range []struct {
		name string
		max  float64
		run  func()
	}{
		{"ParseSubmit", 33, func() {
			if _, err := ParseSubmit(body); err != nil {
				t.Fatal(err)
			}
		}},
		{"Validate", 1, func() {
			if err := res.Solution.Validate(spec.Instance); err != nil {
				t.Fatal(err)
			}
		}},
		{"resultDigest", 11, func() { resultDigest(spec.Instance.Name, res) }},
		{"accepted record", 11, func() {
			m.mu.Lock()
			defer m.mu.Unlock()
			line, err := m.walAccepted(j)
			if err == nil {
				err = w.AppendEncoded(line)
			}
			if err != nil {
				t.Fatal(err)
			}
		}},
	} {
		got := testing.AllocsPerRun(20, c.run)
		t.Logf("%s: %.0f allocs", c.name, got)
		if got > c.max {
			t.Errorf("%s: %.0f allocs, want at most %.0f", c.name, got, c.max)
		}
	}
}

// allocBytes returns the heap bytes one call of f allocates, averaged over
// runs calls after a warm-up call.
func allocBytes(runs int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// The instance decoder sizes an array only from the elements it decodes:
// runs of '{' and '[' in the label, in an unknown instance key or after the
// request object, and a characters key repeated with empty arrays before the
// real one, leave every decoded array at most twice its length and the
// parse within the body's own size plus 64 KB.
func TestParseSubmitSizesOnlyDecodedArrays(t *testing.T) {
	var inst bytes.Buffer
	if err := eblow.EncodeInstance(&inst, eblow.SmallInstance(eblow.OneD, 6, 2, 1)); err != nil {
		t.Fatal(err)
	}
	var c bytes.Buffer
	if err := json.Compact(&c, inst.Bytes()); err != nil {
		t.Fatal(err)
	}
	in := c.String()
	head := in[:len(in)-1]
	junk := strings.Repeat("{[", 1<<17)
	for _, tc := range []struct{ name, body string }{
		{"label", `{"instance":` + in + `,"solver":"greedy","label":"` + junk + `"}`},
		{"unknown instance key", `{"instance":` + head + `,"vendor":"` + junk + `"},"solver":"greedy"}`},
		{"after the request", `{"instance":` + in + `,"solver":"greedy"}` + junk},
		{"repeated empty characters", `{"instance":{` + strings.Repeat(`"characters":[],`, 4096) + in[1:] + `,"solver":"greedy"}` + junk},
	} {
		body := []byte(tc.body)
		spec, err := ParseSubmit(body)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		chars := spec.Instance.Characters
		if len(chars) != 6 || cap(chars) > 2*len(chars) {
			t.Errorf("%s: characters len %d cap %d, want 6 and at most twice the length", tc.name, len(chars), cap(chars))
		}
		for i, ch := range chars {
			if cap(ch.Repeats) > 2*len(ch.Repeats) {
				t.Errorf("%s: character %d repeats len %d cap %d", tc.name, i, len(ch.Repeats), cap(ch.Repeats))
			}
		}
		bytes := allocBytes(5, func() {
			if _, err := ParseSubmit(body); err != nil {
				t.Fatal(err)
			}
		})
		if limit := uint64(len(body)) + 64<<10; bytes > limit {
			t.Errorf("%s: the parse allocates %d bytes, want at most %d", tc.name, bytes, limit)
		}
	}
}
