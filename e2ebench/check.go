package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"

	"eblow/internal/core"
	"eblow/internal/solver"
)

// planDigest fingerprints a result exactly as the service's digest does:
// instance, strategy, objective and feasibility, then the plan with its
// runtime zeroed. Recomputing it from the decoded plan checks that the plan
// the client read is the plan the node digested.
func planDigest(instance, strategy string, objective int64, feasible bool, sol *core.Solution) (string, error) {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s|%d|%v\n", instance, strategy, objective, feasible)
	if sol != nil {
		s := *sol
		s.Runtime = 0
		b, err := json.Marshal(&s)
		if err != nil {
			return "", err
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// resultDigest is planDigest of a direct solver.Solve result.
func resultDigest(instance string, r *solver.Result) (string, error) {
	return planDigest(instance, r.Strategy, r.Objective, r.Feasible, r.Solution)
}

// checked is what the correctness gate keeps of one finished job.
type checked struct {
	digest  string
	writing int64 // the plan's max-region writing time, recomputed
	vsb     int64 // the instance's VSB-only writing time
}

// checkResult validates one returned job document against the job the
// client generated: the job must be done, its plan must pass core
// validation, and the writing time and digest recomputed here must match
// what the node reported.
func checkResult(j job, doc jobDoc) (checked, error) {
	if doc.State != "done" {
		return checked{}, fmt.Errorf("job %d (%s) ended %s: %s", j.idx, j.strategy, doc.State, doc.Error)
	}
	r := doc.Result
	if r == nil || r.Solution == nil {
		return checked{}, fmt.Errorf("job %d: result carries no plan", j.idx)
	}
	if doc.Instance != j.inst.Name {
		return checked{}, fmt.Errorf("job %d: result is for instance %q, want %q", j.idx, doc.Instance, j.inst.Name)
	}
	if !r.Feasible {
		return checked{}, fmt.Errorf("job %d: node reports an infeasible plan", j.idx)
	}
	sol := r.Solution
	if err := sol.Validate(j.inst); err != nil {
		return checked{}, fmt.Errorf("job %d: invalid plan: %w", j.idx, err)
	}
	wt := j.inst.WritingTime(sol.Selected)
	if wt != sol.WritingTime || wt != r.Objective {
		return checked{}, fmt.Errorf("job %d: writing time %d recomputed, plan says %d, objective %d", j.idx, wt, sol.WritingTime, r.Objective)
	}
	d, err := planDigest(doc.Instance, r.Strategy, r.Objective, r.Feasible, sol)
	if err != nil {
		return checked{}, fmt.Errorf("job %d: digest: %w", j.idx, err)
	}
	if d != r.Digest {
		return checked{}, fmt.Errorf("job %d: node digest %.12s differs from the plan's %.12s", j.idx, r.Digest, d)
	}
	return checked{digest: d, writing: wt, vsb: core.MaxInt64(j.inst.VSBTime())}, nil
}

// digestBook holds one digest per pool job. Every completion of a job
// within a run must match its first, and the book is kept on disk per
// workload and seed so a later run of the same build must match too.
type digestBook struct {
	path    string
	digests map[int]string
	// known is the set loaded from disk, which this run must reproduce.
	known map[int]string
}

func loadDigestBook(path string) (*digestBook, error) {
	b := &digestBook{path: path, digests: map[int]string{}, known: map[int]string{}}
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return b, nil
	}
	if err != nil {
		return nil, err
	}
	var m map[string]string
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("digest book %s: %w", path, err)
	}
	for k, v := range m {
		i, err := strconv.Atoi(k)
		if err != nil {
			return nil, fmt.Errorf("digest book %s: bad job index %q", path, k)
		}
		b.known[i] = v
	}
	return b, nil
}

// record checks a job's digest against every earlier completion of it.
func (b *digestBook) record(idx int, digest string) error {
	if want, ok := b.known[idx]; ok && want != digest {
		return fmt.Errorf("job %d: digest %.12s differs from an earlier run's %.12s", idx, digest, want)
	}
	if want, ok := b.digests[idx]; ok && want != digest {
		return fmt.Errorf("job %d: digest %.12s differs from its first completion's %.12s in this run", idx, digest, want)
	}
	b.digests[idx] = digest
	return nil
}

// save merges this run's digests into the book on disk.
func (b *digestBook) save() error {
	m := make(map[string]string, len(b.known)+len(b.digests))
	for i, d := range b.known {
		m[strconv.Itoa(i)] = d
	}
	for i, d := range b.digests {
		m[strconv.Itoa(i)] = d
	}
	raw, err := json.Marshal(m)
	if err != nil {
		return err
	}
	tmp := b.path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, b.path)
}
