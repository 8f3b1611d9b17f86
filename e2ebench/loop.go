package main

import (
	"context"
	"fmt"
	"runtime"
	"time"
)

// sample is one completed job of the closed loop, with the client-side
// timestamps (POST sent, 202 read, terminal event read, result read) and
// the node's own submitted/started/finished times.
type sample struct {
	j                          job
	t0, t1, t2, t3             time.Time
	submitted, started, finish time.Time
	// pass is the index of the pass over the pool the job ran in.
	pass int
}

func (s sample) latency() time.Duration { return s.t3.Sub(s.t0) }

// runner drives one fleet with one workload.
type runner struct {
	wl   *workload
	f    *fleet
	c    *client
	book *digestBook
	next int
	// seen keeps the checked outcome of every pool job completed so far.
	seen map[int]checked
	// attempted and failed count every submission of the run, warm-up
	// included; a refused submission counts as attempted and failed.
	attempted, failed int
	// tr records the loop's spans; nil in untraced phases.
	tr *tracer
	// retries counts result reads the fleet answered as transient (see
	// retryable), after which the client waited on the job again.
	retries int
}

// maxResultReads bounds how often the client re-waits for one job whose
// result read was answered as transient.
const maxResultReads = 5

func newRunner(wl *workload, f *fleet, book *digestBook) *runner {
	return &runner{wl: wl, f: f, c: newClient(), book: book, seen: map[int]checked{}}
}

// burst submits the next wl.burst pool jobs and waits for all of them: one
// goroutine posts the jobs while the caller's goroutine follows each job's
// event stream and reads its result, so submits (WAL writes) run beside
// the reads on the client's two connections.
func (r *runner) burst(ctx context.Context) ([]sample, error) {
	jobs := make([]job, r.wl.burst)
	for i := range jobs {
		jobs[i] = r.wl.pool[r.next]
		r.next = (r.next + 1) % len(r.wl.pool)
	}
	type sub struct {
		j      job
		id     string
		t0, t1 time.Time
		err    error
	}
	subs := make(chan sub, len(jobs)) // one slot per job: the sender never blocks
	go func() {
		defer close(subs)
		for _, j := range jobs {
			t0 := time.Now()
			doc, err := r.c.submit(ctx, r.f.base, j.body)
			subs <- sub{j: j, id: doc.ID, t0: t0, t1: time.Now(), err: err}
			if err != nil {
				return
			}
		}
	}()
	var out []sample
	var firstErr error
	for s := range subs {
		r.attempted++
		if firstErr != nil {
			r.failed++
			continue
		}
		if s.err != nil {
			r.failed++
			firstErr = fmt.Errorf("submit job %d: %w", s.j.idx, s.err)
			continue
		}
		smp, err := r.finish(ctx, s.j, s.id, s.t0, s.t1)
		if err != nil {
			r.failed++
			firstErr = err
			continue
		}
		out = append(out, smp)
	}
	return out, firstErr
}

// finish waits for one submitted job, reads its result and runs the
// correctness gate on it.
func (r *runner) finish(ctx context.Context, j job, id string, t0, t1 time.Time) (sample, error) {
	// tw is when the client starts waiting; in a burst a job can sit
	// between its 202 and tw while the client reads earlier jobs.
	tw := time.Now()
	var state string
	var doc jobDoc
	var t2 time.Time
	for read := 1; ; read++ {
		var err error
		if state, err = r.c.wait(ctx, r.f.base, id); err != nil {
			return sample{}, fmt.Errorf("job %d: %w", j.idx, err)
		}
		t2 = time.Now()
		doc, err = r.c.result(ctx, r.f.base, id)
		if err == nil {
			break
		}
		if !retryable(err) || read == maxResultReads {
			return sample{}, fmt.Errorf("job %d result: %w", j.idx, err)
		}
		r.retries++
	}
	t3 := time.Now()
	if doc.State != state {
		return sample{}, fmt.Errorf("job %d: events ended %s but the result reads %s", j.idx, state, doc.State)
	}
	ck, err := checkResult(j, doc)
	if err != nil {
		return sample{}, err
	}
	if err := r.book.record(j.idx, ck.digest); err != nil {
		return sample{}, err
	}
	r.seen[j.idx] = ck
	if r.tr != nil {
		root := r.tr.add(id, "job", 0, t0, t3)
		r.tr.add(id, "http.submit", root, t0, t1)
		wait := r.tr.add(id, "events.wait", root, tw, t2)
		r.tr.add(id, "server.queue", wait, doc.Submitted, doc.Started)
		r.tr.add(id, "server.solve", wait, doc.Started, doc.Finished)
		r.tr.add(id, "http.result", root, t2, t3)
	}
	return sample{j: j, t0: t0, t1: t1, t2: t2, t3: t3,
		submitted: doc.Submitted, started: doc.Started, finish: doc.Finished}, nil
}

// phase is the measured outcome of whole passes over the pool.
type phase struct {
	samples []sample
	passes  int
	// steal is, per pass, the share of the VM's CPU time the hypervisor
	// stole while the pass ran.
	steal []float64
	// slices holds, per burst position in the pool, the wall and CPU time
	// each pass spent on that burst.
	slices [][]slice
	wall   time.Duration
	cpu    time.Duration
	alloc  uint64
	// heapMB is HeapAlloc after a forced GC, taken at the first burst
	// boundary past heapAt jobs (0 when not sampled).
	heapMB float64
}

// slice is one pass's time on one burst of the pool.
type slice struct {
	wall, cpu time.Duration
	pass      int
}

// run drives whole passes over the pool, at least minPasses of them, until
// at least dur of loop time has passed and at least minJobs jobs completed,
// so every phase measures the same mix of jobs. With heapAt > 0 it pauses
// once, at a burst boundary where the fleet is idle, to sample the retained
// heap; the pause and the CPU it burns are left out of the phase's times.
func (r *runner) run(ctx context.Context, dur time.Duration, minPasses, minJobs, heapAt int) (phase, error) {
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	p := phase{slices: make([][]slice, len(r.wl.pool)/r.wl.burst)}
	cpu0 := processCPU()
	host, _ := readProcStat()
	start := time.Now()
	var paused, pausedCPU time.Duration
	for {
		pos := r.next / r.wl.burst
		t, c := time.Now(), processCPU()
		out, err := r.burst(ctx)
		if err != nil {
			return phase{}, err
		}
		p.slices[pos] = append(p.slices[pos], slice{time.Since(t), processCPU() - c, p.passes})
		for i := range out {
			out[i].pass = p.passes
		}
		p.samples = append(p.samples, out...)
		if heapAt > 0 && p.heapMB == 0 && len(p.samples) >= heapAt {
			t, c := time.Now(), processCPU()
			runtime.GC()
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			p.heapMB = float64(m.HeapAlloc) / (1 << 20)
			paused += time.Since(t)
			pausedCPU += processCPU() - c
		}
		if r.next != 0 {
			continue
		}
		p.passes++
		next, _ := readProcStat()
		p.steal = append(p.steal, stealFrac(host, next))
		host = next
		if p.passes >= minPasses && time.Since(start)-paused >= dur && len(p.samples) >= minJobs {
			break
		}
	}
	p.wall = time.Since(start) - paused
	p.cpu = processCPU() - cpu0 - pausedCPU
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	p.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	return p, nil
}

// typicalPass estimates one undisturbed pass over the pool: the sum, over
// the pool's bursts, of each burst's median wall and CPU time across the
// passes. A stall that hits one pass of a burst drops out of the median.
// Wall times are on unstolen time: each is scaled by the share of the VM's
// CPU time the hypervisor left it during that pass, so host steal, which
// the program cannot cause or cure, does not land in the figure. CPU time
// needs no scaling; stolen time is never charged to the process.
func (p phase) typicalPass() (wall, cpu time.Duration) {
	for _, runs := range p.slices {
		ws := make([]float64, len(runs))
		cs := make([]float64, len(runs))
		for i, s := range runs {
			ws[i] = float64(s.wall) * (1 - p.steal[s.pass])
			cs[i] = float64(s.cpu)
		}
		wall += time.Duration(median(ws))
		cpu += time.Duration(median(cs))
	}
	return wall, cpu
}

// jobLatencies returns each pool job's median latency over the passes, in
// milliseconds of unstolen time: one sample per distinct job.
func (p phase) jobLatencies() []float64 {
	byJob := map[int][]float64{}
	for _, s := range p.samples {
		byJob[s.j.idx] = append(byJob[s.j.idx], ms(s.latency())*(1-p.steal[s.pass]))
	}
	out := make([]float64, 0, len(byJob))
	for _, ls := range byJob {
		out = append(out, median(ls))
	}
	return out
}

// warm runs the workload's warm-up bursts, whose jobs no metric counts,
// and rewinds to the start of the pool.
func (r *runner) warm(ctx context.Context) error {
	for i := 0; i < r.wl.warmup; i++ {
		if _, err := r.burst(ctx); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	r.next = 0
	return nil
}

// writingRel is the plans' summed max-region writing time over the summed
// VSB-only writing time, over every distinct pool job the run completed.
func (r *runner) writingRel() float64 {
	var w, v int64
	for _, ck := range r.seen {
		w += ck.writing
		v += ck.vsb
	}
	if v == 0 {
		return 0
	}
	return float64(w) / float64(v)
}
