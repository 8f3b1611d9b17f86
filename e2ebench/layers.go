package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"eblow/internal/batch"
	"eblow/internal/core"
	"eblow/internal/floorsa"
	"eblow/internal/oned"
	"eblow/internal/pack2d"
	"eblow/internal/service"
	"eblow/internal/solver"
	"eblow/internal/twod"
)

// Per-layer probe sizes: how many jobs each direct call is measured on.
const (
	resolvePerStrategy = 6  // direct solver.Solve re-solves per strategy
	layerSolves        = 3  // oned.Solve / twod.Solve / floorsa.Pack calls
	cohortSize         = 8  // the sa24 cohort batch.Execute runs
	cohortReps         = 3  // repetitions of the cohort, batched and solo
	submitProbes       = 16 // direct submits per service and dispatch probe
)

// tracedRun is the traced variant: the same closed loop with spans around
// every layer call, then the burst probe, then direct calls into each
// layer's public function. It reports the per-layer metrics; end-to-end
// figures come from untraced runs only.
func tracedRun(ctx context.Context, cfg config, tmp string, book *digestBook) (map[string]metric, *runner, error) {
	wl, f, _, err := setup(ctx, cfg, tmp, 1)
	if err != nil {
		return nil, nil, err
	}
	r := newRunner(wl, f, book)
	m, err := tracedLoop(ctx, cfg, r)
	r.c.close()
	f.close()
	if err != nil {
		return nil, r, err
	}
	br, err := probeBurst(ctx, cfg, tmp, r.tr, m)
	if br != nil {
		r.attempted += br.attempted
		r.failed += br.failed
	}
	if err != nil {
		return nil, r, fmt.Errorf("burst probe: %w", err)
	}
	if err := probeLayers(ctx, cfg, tmp, []*runner{r, br}, m); err != nil {
		return nil, r, err
	}
	path := filepath.Join(cfg.state, fmt.Sprintf("trace-%s-%d.ndjson", cfg.workload, cfg.seed))
	if err := r.tr.write(path); err != nil {
		return nil, r, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans: %d written to %s\n", len(r.tr.spans), path)
	return m, r, nil
}

// tracedLoop runs an untraced stretch (the overhead baseline) and then a
// traced one, and times the node's job list at the end.
func tracedLoop(ctx context.Context, cfg config, r *runner) (map[string]metric, error) {
	dur := time.Duration(cfg.seconds) * time.Second
	if err := r.warm(ctx); err != nil {
		return nil, err
	}
	base, err := r.run(ctx, dur/4, 1, 1, 0)
	if err != nil {
		return nil, err
	}
	r.tr = &tracer{}
	p, err := r.run(ctx, dur/2, 1, minTimed, 0)
	if err != nil {
		return nil, err
	}
	m := map[string]metric{}
	perJob := func(ph phase) float64 { return ms(ph.cpu) / float64(len(ph.samples)) }
	m["trace.overhead_pct"] = metric{100 * (perJob(p)/perJob(base) - 1), "%"}

	var sub, res, e2e, solve float64
	var waits []float64
	for _, s := range p.samples {
		sub += ms(s.t1.Sub(s.t0))
		res += ms(s.t3.Sub(s.t2))
		e2e += ms(s.latency())
		solve += ms(s.finish.Sub(s.started))
		waits = append(waits, ms(s.started.Sub(s.submitted)))
	}
	n := float64(len(p.samples))
	m["http.submit_ms"] = metric{sub / n, "ms"}
	m["http.result_ms"] = metric{res / n, "ms"}
	m["service.solve_share"] = metric{solve / e2e, "ratio"}
	q50, _ := percentile(waits, 0.50)
	q90, ok := percentile(waits, 0.90)
	if !ok {
		return nil, fmt.Errorf("only %d queue-wait samples, too few for p90", len(waits))
	}
	m["service.queue_wait_p50_ms"] = metric{q50, "ms"}
	m["service.queue_wait_p90_ms"] = metric{q90, "ms"}

	// Self time per layer, per job, and the unattributed share: the
	// client's own time between calls, which no layer span covers.
	spans := r.tr.spans
	self, err := selfTimes(spans)
	if err != nil {
		return nil, err
	}
	perName := map[string]time.Duration{}
	var rootDur time.Duration
	for _, s := range spans {
		perName[s.Name] += self[s.ID]
		if s.Parent == 0 {
			rootDur += time.Duration(s.End - s.Start)
		}
	}
	// server.queue has no self-time metric: on a single-client workload the
	// job starts before the 202 is read, so its clipped self time is zero
	// (service.queue_wait_* report the unclipped wait).
	for name, metricName := range map[string]string{
		"job": "self.client_ms", "http.submit": "self.http_submit_ms", "events.wait": "self.notify_ms",
		"server.solve": "self.solve_ms", "http.result": "self.http_result_ms",
	} {
		m[metricName] = metric{ms(perName[name]) / n, "ms"}
	}
	m["trace.unattributed_pct"] = metric{100 * float64(perName["job"]) / float64(rootDur), "%"}

	if err := listCost(ctx, r, m); err != nil {
		return nil, err
	}
	fmt.Printf("%s seed %d traced: %d untraced + %d traced jobs\n", cfg.workload, cfg.seed, len(base.samples), len(p.samples))
	return m, nil
}

// listCost times the GET /v1/jobs a dispatcher's health probe sends a node,
// on the node holding the most jobs: shape-sticky routing can put nearly
// all of a workload on one node.
func listCost(ctx context.Context, r *runner, m map[string]metric) error {
	var times []float64
	jobs := -1
	for _, n := range r.f.nodes {
		var nt []float64
		var count int
		for i := 0; i < 3; i++ {
			var list []json.RawMessage
			var err error
			d := r.tr.time(n.name, "http.list", 0, func() {
				err = r.c.do(ctx, "GET", n.http.url+"/v1/jobs", nil, 200, &list)
			})
			if err != nil {
				return err
			}
			nt = append(nt, ms(d))
			count = len(list)
		}
		if count > jobs {
			times, jobs = nt, count
		}
	}
	m["dispatch.list_ms"] = metric{median(times), "ms"}
	m["dispatch.list_jobs"] = metric{float64(jobs), "count"}
	return nil
}

// probeBurst runs the burst traffic for whole passes: bursts of 16 tiny
// sa24/greedy/row25 jobs through a dispatcher over two nodes, where HTTP,
// the WALs, the batch scheduler and the hop dominate. It reports that
// traffic's throughput and latency (not gated: see README.md), the batch
// scheduler's counters and the transient result reads. Its jobs pass the
// same correctness gate as the workload's, with their own digest book.
func probeBurst(ctx context.Context, cfg config, tmp string, tr *tracer, m map[string]metric) (*runner, error) {
	wl, err := newWorkload("burst", cfg.seed)
	if err != nil {
		return nil, err
	}
	book, err := loadDigestBook(filepath.Join(cfg.state, fmt.Sprintf("digests-%s-burst-%d.json", cfg.build, cfg.seed)))
	if err != nil {
		return nil, err
	}
	f, err := bootFleet(tmp, wl.nodes, wl.dispatcher)
	if err != nil {
		return nil, err
	}
	defer f.close()
	r := newRunner(wl, f, book)
	defer r.c.close()
	r.tr = tr
	if err := r.warm(ctx); err != nil {
		return r, err
	}
	// A third of the run: cohorts form only now and then in this traffic,
	// so one pass of the pool often shows none.
	p, err := r.run(ctx, time.Duration(cfg.seconds)*time.Second/3, 1, minTimed, 0)
	if err != nil {
		return r, err
	}
	wall, cpu := p.typicalPass()
	lats := p.jobLatencies()
	p50, _ := percentile(lats, 0.50)
	p90, ok := percentile(lats, 0.90)
	if !ok {
		return r, fmt.Errorf("only %d latency samples, too few for p90", len(lats))
	}
	n := float64(len(wl.pool))
	m["burst.jobs_per_s"] = metric{n / wall.Seconds(), "1/s"}
	m["burst.latency_p50_ms"] = metric{p50, "ms"}
	m["burst.latency_p90_ms"] = metric{p90, "ms"}
	m["burst.cpu_ms_per_job"] = metric{ms(cpu) / n, "ms"}
	m["dispatch.result_retries"] = metric{float64(r.retries), "count"}

	var stats struct {
		Fleet service.Stats `json:"fleet"`
	}
	if err := r.c.do(ctx, "GET", f.base+"/v1/stats", nil, 200, &stats); err != nil {
		return r, err
	}
	bs := stats.Fleet.Batch
	m["batch.cohorts"] = metric{float64(bs.Cohorts), "count"}
	m["batch.batched_jobs"] = metric{float64(bs.BatchedJobs), "count"}
	m["batch.overtakes"] = metric{float64(bs.Overtakes), "count"}
	m["batch.aged_pops"] = metric{float64(bs.AgedPops), "count"}
	fmt.Printf("burst probe seed %d: %d jobs, %d result retries\n", cfg.seed, len(p.samples), r.retries)
	return r, book.save()
}

// probeJob is a job a direct layer call runs on, with the digest the fleet
// returned for it ("" when no fleet ran it).
type probeJob struct {
	job
	digest string
}

// probeSet returns, per solver metric name, the jobs the direct layer
// calls run on: the jobs the runners sent, and where they sent none of a
// strategy, jobs drawn from the workload that has it (seeded from the
// run's seed), so every per-layer metric exists on every workload.
func probeSet(seed int64, runners []*runner) (map[string][]probeJob, error) {
	out := map[string][]probeJob{}
	for _, r := range runners {
		for _, j := range r.wl.pool {
			out[strategyMetric(j)] = append(out[strategyMetric(j)], probeJob{j, r.seen[j.idx].digest})
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for _, p := range []struct{ metric, src string }{
		{"eblow1d", "plan1d"}, {"eblow2d", "plan2d"}, {"sa24", "burst"}, {"greedy", "burst"}, {"row25", "burst"},
	} {
		for i := 0; len(out[p.metric]) < cohortSize; i++ {
			j, err := genJob(p.src, i, rng)
			if err != nil {
				return nil, err
			}
			if strategyMetric(j) == p.metric {
				out[p.metric] = append(out[p.metric], probeJob{job: j})
			}
		}
	}
	return out, nil
}

// probeLayers calls each layer's public function directly.
func probeLayers(ctx context.Context, cfg config, tmp string, runners []*runner, m map[string]metric) error {
	set, err := probeSet(cfg.seed, runners)
	if err != nil {
		return err
	}
	r := runners[0]
	if err := probeSolvers(ctx, r.tr, set, m); err != nil {
		return err
	}
	if err := probeOneD(ctx, r.tr, set["eblow1d"], m); err != nil {
		return err
	}
	if err := probeTwoD(ctx, r.tr, set["eblow2d"], m); err != nil {
		return err
	}
	if err := probeBatch(ctx, r.tr, set["sa24"], m); err != nil {
		return err
	}
	if err := probeService(r.tr, tmp, r.wl.pool, m); err != nil {
		return err
	}
	return probeDispatch(ctx, r.tr, tmp, r.wl.pool, m)
}

// probeSolvers re-solves jobs directly through solver.Solve. A job a fleet
// completed must give the digest the fleet returned for it.
func probeSolvers(ctx context.Context, tr *tracer, set map[string][]probeJob, m map[string]metric) error {
	for _, name := range []string{"eblow1d", "eblow2d", "sa24", "greedy", "row25"} {
		var times []float64
		for _, j := range set[name][:resolvePerStrategy] {
			label := fmt.Sprintf("%s/%d", j.inst.Name, j.idx)
			var res *solver.Result
			var err error
			tr.time(label, "solver.Solve", 0, func() {
				res, err = solver.Solve(ctx, j.strategy, j.inst, j.params)
			})
			if err != nil {
				return fmt.Errorf("direct solve of %s: %w", label, err)
			}
			if err := res.Solution.Validate(j.inst); err != nil {
				return fmt.Errorf("direct solve of %s: invalid plan: %w", label, err)
			}
			times = append(times, ms(res.Elapsed))
			if j.digest == "" {
				continue
			}
			d, err := resultDigest(j.inst.Name, res)
			if err != nil {
				return err
			}
			if d != j.digest {
				return fmt.Errorf("job %s: fleet digest %.12s differs from a direct solver.Solve's %.12s", label, j.digest, d)
			}
		}
		m["solver."+name+"_ms"] = metric{mean(times), "ms"}
	}
	return nil
}

// memDelta measures the heap allocation and GC cycles of fn.
func memDelta(fn func()) (allocMB float64, gcs uint32) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20), b.NumGC - a.NumGC
}

// probeOneD calls oned.Solve with the options the eblow strategy uses for
// a one-worker job, collecting its trace.
func probeOneD(ctx context.Context, tr *tracer, jobs []probeJob, m map[string]metric) error {
	var solve, relax, iters, alloc, gcs, pivots, vars, fastPivots float64
	for _, j := range jobs[:layerSolves] {
		opt := oned.Defaults()
		opt.Workers = 1
		opt.CollectTrace = true
		var sol *core.Solution
		var t *oned.Trace
		var err error
		var d time.Duration
		a, g := memDelta(func() {
			d = tr.time(j.inst.Name, "oned.Solve", 0, func() { sol, t, err = oned.Solve(ctx, j.inst, opt) })
		})
		if err != nil {
			return fmt.Errorf("oned.Solve %s: %w", j.inst.Name, err)
		}
		if err := sol.Validate(j.inst); err != nil {
			return fmt.Errorf("oned.Solve %s: invalid plan: %w", j.inst.Name, err)
		}
		solve += ms(d)
		relax += ms(t.RelaxElapsed)
		iters += float64(len(t.UnsolvedPerIteration))
		alloc += a
		gcs += float64(g)
		pivots += float64(t.RelaxPivots)
		vars += float64(t.FastILPVariables)
		fastPivots += float64(t.FastILPPivots)
	}
	n := float64(layerSolves)
	m["oned.solve_ms"] = metric{solve / n, "ms"}
	m["oned.relax_ms"] = metric{relax / n, "ms"}
	m["oned.relax_share"] = metric{relax / solve, "ratio"}
	m["oned.rounding_iters"] = metric{iters / n, "count"}
	m["oned.alloc_mb"] = metric{alloc / n, "MB"}
	m["oned.gc_cycles"] = metric{gcs / n, "count"}
	m["lp.relax_pivots"] = metric{pivots / n, "count"}
	m["ilp.fast_vars"] = metric{vars / n, "count"}
	m["ilp.fast_pivots"] = metric{fastPivots / n, "count"}
	return nil
}

// probeTwoD calls twod.Solve as the eblow strategy does for a one-worker
// job, then the floorplan annealer alone on the same instance with the
// single-restart budget ospbench -perf uses.
func probeTwoD(ctx context.Context, tr *tracer, jobs []probeJob, m map[string]metric) error {
	var solve, clusters, away, moves float64
	var annealed time.Duration
	for _, j := range jobs[:layerSolves] {
		opt := twod.Defaults()
		opt.Workers = 1
		opt.Seed = j.params.Seed
		var sol *core.Solution
		var st *twod.Stats
		var err error
		d := tr.time(j.inst.Name, "twod.Solve", 0, func() { sol, st, err = twod.Solve(ctx, j.inst, opt) })
		if err != nil {
			return fmt.Errorf("twod.Solve %s: %w", j.inst.Name, err)
		}
		if err := sol.Validate(j.inst); err != nil {
			return fmt.Errorf("twod.Solve %s: invalid plan: %w", j.inst.Name, err)
		}
		solve += ms(d)
		clusters += float64(st.Clusters)
		away += float64(st.ClusteredAway)

		in := j.inst
		blocks := make([]floorsa.Block, in.NumCharacters())
		for i, c := range in.Characters {
			reds := make([]int64, in.NumRegions)
			for r := range reds {
				reds[r] = in.Reduction(i, r)
			}
			blocks[i] = floorsa.Block{
				Block: pack2d.Block{
					W: c.Width, H: c.Height,
					BlankL: c.BlankLeft, BlankR: c.BlankRight,
					BlankT: c.BlankTop, BlankB: c.BlankBottom,
				},
				Reductions: reds,
			}
		}
		var res *floorsa.Result
		annealed += tr.time(in.Name, "floorsa.Pack", 0, func() {
			res = floorsa.Pack(ctx, blocks, in.VSBTime(), in.StencilWidth, in.StencilHeight,
				floorsa.Options{Seed: j.params.Seed, MoveBudget: 40 * in.NumCharacters(), Restarts: 1})
		})
		moves += float64(res.Moves)
	}
	n := float64(layerSolves)
	m["twod.solve_ms"] = metric{solve / n, "ms"}
	m["twod.clusters"] = metric{clusters / n, "count"}
	m["twod.clustered_away"] = metric{away / n, "count"}
	m["floorsa.moves"] = metric{moves / n, "count"}
	m["floorsa.moves_per_s"] = metric{moves / annealed.Seconds(), "1/s"}
	return nil
}

// probeBatch runs one fixed sa24 cohort through batch.Execute and the same
// jobs one by one through solver.Solve; both must give the same plans.
func probeBatch(ctx context.Context, tr *tracer, jobs []probeJob, m map[string]metric) error {
	units := make([]batch.Unit, cohortSize)
	for i, j := range jobs[:cohortSize] {
		units[i] = batch.Unit{Ctx: ctx, Instance: j.inst, Strategy: j.strategy, Params: j.params}
	}
	var batched, solo []float64
	for rep := 0; rep < cohortReps; rep++ {
		var out []batch.UnitResult
		d := tr.time("cohort", "batch.Execute", 0, func() { out = batch.Execute(units, 1) })
		batched = append(batched, ms(d)/cohortSize)
		var total time.Duration
		for i, u := range units {
			var res *solver.Result
			var err error
			total += tr.time(u.Instance.Name, "solver.Solve", 0, func() {
				res, err = solver.Solve(ctx, u.Strategy, u.Instance, u.Params)
			})
			if err != nil || out[i].Err != nil {
				return fmt.Errorf("cohort unit %d: solo %v, batched %v", i, err, out[i].Err)
			}
			a, errA := resultDigest(u.Instance.Name, res)
			b, errB := resultDigest(u.Instance.Name, out[i].Result)
			if errA != nil || errB != nil || a != b {
				return fmt.Errorf("cohort unit %d: batched plan differs from the solo plan", i)
			}
		}
		solo = append(solo, ms(total)/cohortSize)
	}
	m["batch.execute_ms_per_job"] = metric{median(batched), "ms"}
	m["batch.solo_ms_per_job"] = metric{median(solo), "ms"}
	return nil
}

// probeService times Manager.Submit directly, against a manager with a
// disk WAL and one without, alternating between the two.
func probeService(tr *tracer, tmp string, pool []job, m map[string]metric) error {
	walFleet, err := bootFleet(tmp, 1, false)
	if err != nil {
		return err
	}
	defer walFleet.close()
	bare := service.New(service.Config{Workers: 1, RecordTTL: time.Hour, MaxPending: 1024, Batch: service.BatchConfig{Enabled: true}})
	defer bare.Close()
	var with, without float64
	for i := 0; i < submitProbes; i++ {
		j := pool[i%len(pool)]
		for _, mgr := range []*service.Manager{walFleet.nodes[0].m, bare} {
			spec, err := service.ParseSubmit(j.body)
			if err != nil {
				return err
			}
			var serr error
			d := tr.time(j.inst.Name, "service.Manager.Submit", 0, func() { _, serr = mgr.Submit(spec) })
			if serr != nil {
				return fmt.Errorf("Manager.Submit: %w", serr)
			}
			if mgr == bare {
				without += ms(d)
			} else {
				with += ms(d)
			}
		}
	}
	m["service.submit_ms"] = metric{with / submitProbes, "ms"}
	m["service.wal_ms"] = metric{(with - without) / submitProbes, "ms"}
	return nil
}

// probeDispatch boots a two-node fleet behind a dispatcher and times, per
// job, a direct Dispatcher.Submit, an HTTP submit through the dispatcher,
// and an HTTP submit straight to the node that owns the job.
func probeDispatch(ctx context.Context, tr *tracer, tmp string, pool []job, m map[string]metric) error {
	f, err := bootFleet(tmp, 2, true)
	if err != nil {
		return err
	}
	defer f.close()
	c := newClient()
	defer c.close()
	var direct, via, owner float64
	for i := 0; i < submitProbes; i++ {
		j := pool[i%len(pool)]
		var doc map[string]any
		var serr error
		d := tr.time(j.inst.Name, "dispatch.Dispatcher.Submit", 0, func() { doc, serr = f.disp.Submit(j.body) })
		if serr != nil {
			return fmt.Errorf("Dispatcher.Submit: %w", serr)
		}
		direct += ms(d)
		name, _ := doc["node"].(string)
		url, err := f.nodeURL(name)
		if err != nil {
			return fmt.Errorf("dispatched job: %w", err)
		}
		d = tr.time(j.inst.Name, "http.submit(dispatcher)", 0, func() { _, serr = c.submit(ctx, f.base, j.body) })
		if serr != nil {
			return serr
		}
		via += ms(d)
		d = tr.time(j.inst.Name, "http.submit(node)", 0, func() { _, serr = c.submit(ctx, url, j.body) })
		if serr != nil {
			return serr
		}
		owner += ms(d)
	}
	m["dispatch.submit_ms"] = metric{direct / submitProbes, "ms"}
	m["dispatch.hop_ms"] = metric{(via - owner) / submitProbes, "ms"}
	return nil
}
