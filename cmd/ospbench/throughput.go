package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"eblow"
	"eblow/internal/core"
	"eblow/internal/gen"
	"eblow/internal/service"
)

// tpJob is one unit of the generated throughput workload.
type tpJob struct {
	in     *core.Instance
	solver string
	params eblow.Params
}

// throughputWorkload generates the adversarial mixed stream the batch
// scheduler is built for: a steady run of tiny batchable instances
// interleaved with heavy multi-restart annealing blockers (too large for
// any cohort) and medium E-BLOW jobs. Under a FIFO drain the blockers
// capture the pool and every tiny job behind them blows its latency
// budget; the cost-model scheduler lets the tiny jobs overtake (within the
// aging bound) and packs them into cohorts.
func throughputWorkload(n int, seed int64) []tpJob {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]tpJob, n)
	for i := range jobs {
		s := seed + int64(i)*131
		p := eblow.Params{Seed: 1, Workers: 1}
		switch {
		case i%4 == 3:
			// Heavy blocker: above the cohort char cap, so it always runs
			// solo, and multi-restart so it holds its worker a while.
			p.Restarts = 4
			jobs[i] = tpJob{in: gen.Small(core.TwoD, 420+rng.Intn(80), 2, s), solver: "sa24", params: p}
		case i%8 == 6:
			// Medium non-batchable job for strategy diversity.
			jobs[i] = tpJob{in: gen.Small(core.OneD, 180+rng.Intn(80), 4, s), solver: "eblow", params: p}
		case i%3 == 0:
			jobs[i] = tpJob{in: gen.Small(core.TwoD, 14+rng.Intn(10), 2, s), solver: "sa24", params: p}
		case i%3 == 1:
			jobs[i] = tpJob{in: gen.Small(core.OneD, 24+rng.Intn(16), 2, s), solver: "greedy", params: p}
		default:
			jobs[i] = tpJob{in: gen.Small(core.OneD, 24+rng.Intn(16), 2, s), solver: "row25", params: p}
		}
	}
	return jobs
}

// tpModeStats is the per-mode half of the throughput record.
type tpModeStats struct {
	// JobsPerSec is raw completion throughput: jobs finished per second of
	// wall-clock from first submission to last completion.
	JobsPerSec float64 `json:"jobsPerSec"`
	// GoodputPerSec is SLO-constrained throughput: only jobs whose
	// submit-to-finish latency met the -tp-slo budget count.
	GoodputPerSec float64 `json:"goodputPerSec"`
	SLOMet        int     `json:"sloMet"`
	P50Ms         float64 `json:"p50Ms"`
	P95Ms         float64 `json:"p95Ms"`
	MaxMs         float64 `json:"maxMs"`
	WallMs        int64   `json:"wallMs"`
	// Cohort counters are zero for the solo (FIFO) mode.
	Cohorts     int `json:"cohorts,omitempty"`
	BatchedJobs int `json:"batchedJobs,omitempty"`
	MaxCohort   int `json:"maxCohort,omitempty"`
	AgedPops    int `json:"agedPops,omitempty"`
}

// throughputRecord is the BENCH_throughput.json shape.
type throughputRecord struct {
	Jobs    int   `json:"jobs"`
	SpanMs  int64 `json:"spanMs"`
	SLOMs   int64 `json:"sloMs"`
	Workers int   `json:"workers"`
	Seed    int64 `json:"seed"`

	Solo    tpModeStats `json:"solo"`
	Batched tpModeStats `json:"batched"`

	// SpeedupJobsPerSec and SpeedupGoodput are batched over solo ratios;
	// the goodput ratio is the headline (throughput at the fixed latency
	// budget).
	SpeedupJobsPerSec float64 `json:"speedupJobsPerSec"`
	SpeedupGoodput    float64 `json:"speedupGoodput"`
}

// runThroughputMode drains the workload through one manager configuration
// with open-loop arrivals spread over span, and returns the latency stats
// plus the per-job result digests (for the cross-mode identity check).
func runThroughputMode(ctx context.Context, jobs []tpJob, workers int, batch service.BatchConfig, span, slo time.Duration) (tpModeStats, []string, error) {
	m := service.New(service.Config{Workers: workers, Batch: batch})
	defer m.Close()

	interval := span / time.Duration(len(jobs))
	start := time.Now()
	ids := make([]string, len(jobs))
	for i, j := range jobs {
		if wait := time.Until(start.Add(time.Duration(i) * interval)); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return tpModeStats{}, nil, ctx.Err()
			}
		}
		s, err := m.Submit(service.JobSpec{Instance: j.in, Solver: j.solver, Params: j.params})
		if err != nil {
			return tpModeStats{}, nil, fmt.Errorf("submit job %d: %w", i, err)
		}
		ids[i] = s.ID
	}

	digests := make([]string, len(jobs))
	latencies := make([]time.Duration, len(jobs))
	var lastFinish time.Time
	for i, id := range ids {
		for {
			s, err := m.Status(id)
			if err != nil {
				return tpModeStats{}, nil, err
			}
			if s.State.Terminal() {
				if s.State != service.StateDone {
					return tpModeStats{}, nil, fmt.Errorf("job %d (%s) finished %s: %v", i, jobs[i].solver, s.State, s.Err)
				}
				digests[i] = s.Digest
				latencies[i] = s.Finished.Sub(s.Submitted)
				if s.Finished.After(lastFinish) {
					lastFinish = s.Finished
				}
				break
			}
			select {
			case <-time.After(2 * time.Millisecond):
			case <-ctx.Done():
				return tpModeStats{}, nil, ctx.Err()
			}
		}
	}

	wall := lastFinish.Sub(start)
	sorted := append([]time.Duration(nil), latencies...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	quantile := func(q float64) time.Duration {
		idx := int(q * float64(len(sorted)-1))
		return sorted[idx]
	}
	met := 0
	for _, l := range latencies {
		if l <= slo {
			met++
		}
	}
	st := tpModeStats{
		JobsPerSec:    float64(len(jobs)) / wall.Seconds(),
		GoodputPerSec: float64(met) / wall.Seconds(),
		SLOMet:        met,
		P50Ms:         float64(quantile(0.50)) / float64(time.Millisecond),
		P95Ms:         float64(quantile(0.95)) / float64(time.Millisecond),
		MaxMs:         float64(sorted[len(sorted)-1]) / float64(time.Millisecond),
		WallMs:        wall.Milliseconds(),
	}
	if bs := m.Stats().Batch; bs.Enabled {
		st.Cohorts, st.BatchedJobs, st.MaxCohort, st.AgedPops = bs.Cohorts, bs.BatchedJobs, bs.MaxCohort, bs.AgedPops
	}
	return st, digests, nil
}

// runThroughput benchmarks the job service end to end on a generated mixed
// workload, once with the plain FIFO drain and once with the cost-model
// batch scheduler, and reports jobs/sec plus SLO goodput for both. The two
// runs solve identical instances with identical seeds, so their result
// digests must match job for job — any divergence is a hard failure, which
// makes every bench run double as a batch-identity check.
func runThroughput(ctx context.Context, nJobs, workers int, span, slo time.Duration, seed int64, assertSpeedup float64, jsonPath string) error {
	jobs := throughputWorkload(nJobs, seed)
	fmt.Printf("throughput: %d jobs over %s (SLO %s), pool of %d workers\n", nJobs, span, slo, workers)

	solo, soloDigests, err := runThroughputMode(ctx, jobs, workers, service.BatchConfig{}, span, slo)
	if err != nil {
		return fmt.Errorf("solo (FIFO) run: %w", err)
	}
	fmt.Printf("  solo (FIFO): %6.1f jobs/s, goodput %6.1f/s (%d/%d in SLO), p50 %.0fms p95 %.0fms\n",
		solo.JobsPerSec, solo.GoodputPerSec, solo.SLOMet, nJobs, solo.P50Ms, solo.P95Ms)

	batchCfg := service.BatchConfig{Enabled: true, MaxBatch: 8, MaxChars: 400, MaxJump: 16, Workers: workers}
	batched, batchedDigests, err := runThroughputMode(ctx, jobs, workers, batchCfg, span, slo)
	if err != nil {
		return fmt.Errorf("batched run: %w", err)
	}
	fmt.Printf("  batched:     %6.1f jobs/s, goodput %6.1f/s (%d/%d in SLO), p50 %.0fms p95 %.0fms, %d cohorts (max %d, %d jobs)\n",
		batched.JobsPerSec, batched.GoodputPerSec, batched.SLOMet, nJobs, batched.P50Ms, batched.P95Ms,
		batched.Cohorts, batched.MaxCohort, batched.BatchedJobs)

	for i := range soloDigests {
		if soloDigests[i] != batchedDigests[i] {
			return fmt.Errorf("batch-identity violation: job %d digest %s solo vs %s batched",
				i, soloDigests[i], batchedDigests[i])
		}
	}
	fmt.Printf("  batch identity: all %d result digests match across modes\n", nJobs)

	rec := throughputRecord{
		Jobs: nJobs, SpanMs: span.Milliseconds(), SLOMs: slo.Milliseconds(),
		Workers: workers, Seed: seed, Solo: solo, Batched: batched,
		SpeedupJobsPerSec: batched.JobsPerSec / solo.JobsPerSec,
		SpeedupGoodput:    batched.GoodputPerSec / solo.GoodputPerSec,
	}
	fmt.Printf("  speedup: %.2fx jobs/s, %.2fx goodput at the %s SLO\n",
		rec.SpeedupJobsPerSec, rec.SpeedupGoodput, slo)

	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("throughput record written to %s\n", jsonPath)
	}
	if assertSpeedup > 0 && rec.SpeedupGoodput < assertSpeedup {
		return fmt.Errorf("goodput speedup %.2fx below the asserted %.2fx floor", rec.SpeedupGoodput, assertSpeedup)
	}
	return nil
}
