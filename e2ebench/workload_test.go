package main

import (
	"bytes"
	"context"
	"testing"

	"eblow/internal/core"
	"eblow/internal/service"
	"eblow/internal/solver"
)

func TestSeedGivesByteIdenticalBodies(t *testing.T) {
	for _, name := range workloadNames {
		a, err := newWorkload(name, 42)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newWorkload(name, 42)
		if err != nil {
			t.Fatal(err)
		}
		c, err := newWorkload(name, 43)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.pool) != poolSize[name] || len(b.pool) != len(a.pool) {
			t.Fatalf("%s: pool sizes %d and %d, want %d", name, len(a.pool), len(b.pool), poolSize[name])
		}
		same := 0
		for i := range a.pool {
			if !bytes.Equal(a.pool[i].body, b.pool[i].body) {
				t.Fatalf("%s: job %d body differs between two generations with one seed", name, i)
			}
			if bytes.Equal(a.pool[i].body, c.pool[i].body) {
				same++
			}
			if _, err := service.ParseSubmit(a.pool[i].body); err != nil {
				t.Fatalf("%s: job %d body is not a valid submission: %v", name, i, err)
			}
		}
		if same == len(a.pool) {
			t.Errorf("%s: seeds 42 and 43 give the same bodies", name)
		}
	}
}

// The correctness gate accepts a fleet's honest answer and rejects a
// tampered one.
func TestCheckResult(t *testing.T) {
	wl, err := newWorkload("burst", 3)
	if err != nil {
		t.Fatal(err)
	}
	j := wl.pool[0]
	res, err := solver.Solve(context.Background(), j.strategy, j.inst, j.params)
	if err != nil {
		t.Fatal(err)
	}
	digest, err := resultDigest(j.inst.Name, res)
	if err != nil {
		t.Fatal(err)
	}
	doc := func() jobDoc {
		var d jobDoc
		d.State, d.Instance = "done", j.inst.Name
		sol := *res.Solution
		sol.Selected = append([]bool(nil), sol.Selected...)
		d.Result = &struct {
			Strategy  string         `json:"strategy"`
			Objective int64          `json:"objective"`
			Feasible  bool           `json:"feasible"`
			Digest    string         `json:"digest"`
			Solution  *core.Solution `json:"solution"`
		}{res.Strategy, res.Objective, res.Feasible, digest, &sol}
		return d
	}
	ck, err := checkResult(j, doc())
	if err != nil {
		t.Fatalf("honest result rejected: %v", err)
	}
	if ck.digest != digest || ck.writing != res.Objective || ck.vsb <= ck.writing {
		t.Fatalf("checked = %+v, want digest %.12s, writing %d below the VSB time", ck, digest, res.Objective)
	}
	for name, tamper := range map[string]func(*jobDoc){
		"failed":       func(d *jobDoc) { d.State = "failed" },
		"objective":    func(d *jobDoc) { d.Result.Objective++ },
		"digest":       func(d *jobDoc) { d.Result.Digest = "00" + d.Result.Digest[2:] },
		"instance":     func(d *jobDoc) { d.Instance = "other" },
		"selection":    func(d *jobDoc) { d.Result.Solution.Selected = d.Result.Solution.Selected[1:] },
		"no plan":      func(d *jobDoc) { d.Result.Solution = nil },
		"infeasible":   func(d *jobDoc) { d.Result.Feasible = false },
		"writing time": func(d *jobDoc) { d.Result.Solution.WritingTime-- },
	} {
		d := doc()
		tamper(&d)
		if _, err := checkResult(j, d); err == nil {
			t.Errorf("%s: tampered result accepted", name)
		}
	}
}

func TestDigestBook(t *testing.T) {
	path := t.TempDir() + "/book.json"
	b, err := loadDigestBook(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.record(1, "aa"); err != nil {
		t.Fatal(err)
	}
	if err := b.record(1, "bb"); err == nil {
		t.Fatal("a job's second completion with another digest was accepted")
	}
	if err := b.save(); err != nil {
		t.Fatal(err)
	}
	again, err := loadDigestBook(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := again.record(2, "cc"); err != nil {
		t.Fatal(err)
	}
	if err := again.record(1, "bb"); err == nil {
		t.Fatal("a digest differing from an earlier run's was accepted")
	}
}

// One pass of burst traffic through a dispatcher over two nodes: every job
// comes back, passes the gate, and lands in the phase's figures.
func TestBurstPassThroughFleet(t *testing.T) {
	dir := t.TempDir()
	wl, err := newWorkload("burst", 1)
	if err != nil {
		t.Fatal(err)
	}
	book, err := loadDigestBook(dir + "/book.json")
	if err != nil {
		t.Fatal(err)
	}
	f, err := bootFleet(dir, wl.nodes, wl.dispatcher)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	r := newRunner(wl, f, book)
	defer r.c.close()
	ctx := context.Background()
	if err := r.warm(ctx); err != nil {
		t.Fatal(err)
	}
	p, err := r.run(ctx, 0, 1, minTimed, minTimed)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) != len(wl.pool) || p.passes != 1 {
		t.Fatalf("%d samples in %d passes, want one pass of %d", len(p.samples), p.passes, len(wl.pool))
	}
	if want := len(wl.pool) + wl.warmup*wl.burst; r.attempted != want || r.failed != 0 {
		t.Fatalf("attempted %d, failed %d; want %d, 0", r.attempted, r.failed, want)
	}
	wall, cpu := p.typicalPass()
	if wall <= 0 || cpu <= 0 || p.heapMB <= 0 {
		t.Fatalf("typical pass %v wall %v CPU, heap %v MB", wall, cpu, p.heapMB)
	}
	if got := len(p.jobLatencies()); got != len(wl.pool) {
		t.Fatalf("%d latency samples, want one per pool job (%d)", got, len(wl.pool))
	}
	if rel := r.writingRel(); rel <= 0 || rel >= 1 {
		t.Fatalf("writing_time_rel = %v, want in (0, 1)", rel)
	}
}
