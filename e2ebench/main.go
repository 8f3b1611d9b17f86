// Command e2ebench is the repository benchmark: it boots in-process eblowd
// nodes (and, for the burst workload, a dispatcher) with disk WALs, drives
// them over loopback HTTP with a closed-loop client, checks every returned
// plan, and prints the metrics as one JSON line.
//
//	e2ebench -workload plan1d|plan2d|burst -seed N -seconds S -trace 0|1
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it runs the
// traced variant and prints the per-layer metrics instead. See README.md.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	state    string
	// build identifies this build (see buildID).
	build string
}

// setupReps is how many times a run sets the system up; setup_s is the
// median, and the last set-up fleet is the one measured.
const setupReps = 5

// minTimed is the least number of timed jobs per phase: p90 needs ten
// samples beyond it.
const minTimed = 100

// measuredPasses is the least number of passes over the pool a measured
// phase makes; each burst's figures are medians over the passes.
const measuredPasses = 3

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: plan1d, plan2d or burst")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&cfg.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and prints per-layer metrics")
	flag.StringVar(&cfg.state, "state", filepath.Join(".bench_build", "e2ebench"), "directory for WALs, digest books and traces")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		rep.Correct = false
	}
	out, merr := json.Marshal(rep)
	if merr != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", merr)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !rep.Correct {
		os.Exit(1)
	}
}

func run(cfg config) (report, error) {
	rep := report{Metrics: map[string]metric{}}
	tmp := filepath.Join(cfg.state, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return rep, err
	}
	var err error
	if cfg.build, err = buildID(); err != nil {
		return rep, err
	}
	book, err := loadDigestBook(filepath.Join(cfg.state, fmt.Sprintf("digests-%s-%s-%d.json", cfg.build, cfg.workload, cfg.seed)))
	if err != nil {
		return rep, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	host0, _ := readProcStat()
	cpu0, wall0 := processCPU(), time.Now()

	var m map[string]metric
	var r *runner
	if cfg.trace {
		m, r, err = tracedRun(ctx, cfg, tmp, book)
	} else {
		m, r, err = plainRun(ctx, cfg, tmp, book)
	}
	if r != nil {
		rep.Attempted, rep.Failed = r.attempted, r.failed
	}
	if err != nil {
		return rep, err
	}
	if err := book.save(); err != nil {
		return rep, fmt.Errorf("saving digests: %w", err)
	}

	host1, _ := readProcStat()
	steal := 100 * stealFrac(host0, host1)
	share := float64(processCPU()-cpu0) / (float64(time.Since(wall0)) * float64(runtime.GOMAXPROCS(0)))
	fmt.Printf("host: steal_pct=%.2f cpu_share=%.3f GOMAXPROCS=%d GOGC=%q go=%s cpu=%q\n",
		steal, share, runtime.GOMAXPROCS(0), os.Getenv("GOGC"), runtime.Version(), cpuModel())
	if cfg.trace {
		m["host.steal_pct"] = metric{steal, "%"}
		m["host.cpu_share"] = metric{share, "ratio"}
	}
	rep.Metrics = m
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	return rep, nil
}

// setup generates and encodes the workload, opens the WALs, boots the
// fleet and waits for its first answered request, setupReps times. It
// returns the last fleet, still running, and the median set-up time on
// unstolen time (see unstolen).
func setup(ctx context.Context, cfg config, tmp string, reps int) (*workload, *fleet, float64, error) {
	var times []float64
	var wl *workload
	var f *fleet
	for i := 0; i < reps; i++ {
		if f != nil {
			f.close()
		}
		h0, _ := readProcStat()
		start := time.Now()
		var err error
		if wl, err = newWorkload(cfg.workload, cfg.seed); err != nil {
			return nil, nil, 0, err
		}
		if f, err = bootFleet(tmp, wl.nodes, wl.dispatcher); err != nil {
			return nil, nil, 0, err
		}
		c := newClient()
		var stats map[string]any
		err = c.do(ctx, "GET", f.base+"/v1/stats", nil, 200, &stats)
		c.close()
		if err != nil {
			f.close()
			return nil, nil, 0, fmt.Errorf("first request: %w", err)
		}
		d := time.Since(start)
		h1, _ := readProcStat()
		times = append(times, unstolen(d, h0, h1).Seconds())
	}
	return wl, f, median(times), nil
}

// plainRun is the untraced run that gives the end-to-end metrics.
func plainRun(ctx context.Context, cfg config, tmp string, book *digestBook) (map[string]metric, *runner, error) {
	wl, f, setupS, err := setup(ctx, cfg, tmp, setupReps)
	if err != nil {
		return nil, nil, err
	}
	defer f.close()
	r := newRunner(wl, f, book)
	defer r.c.close()
	if err := r.warm(ctx); err != nil {
		return nil, r, err
	}
	p, err := r.run(ctx, time.Duration(cfg.seconds)*time.Second, measuredPasses, minTimed, minTimed)
	if err != nil {
		return nil, r, err
	}
	lats := p.jobLatencies()
	p50, ok50 := percentile(lats, 0.50)
	p90, ok90 := percentile(lats, 0.90)
	if !ok50 || !ok90 {
		return nil, r, fmt.Errorf("only %d latency samples, too few for p90", len(lats))
	}
	wall, cpu := p.typicalPass()
	n := float64(len(wl.pool))
	fmt.Printf("%s seed %d: %d passes of %d jobs in %.2fs (latency samples: %d jobs x %d passes), %d attempted, %d failed, %d result retries\n",
		cfg.workload, cfg.seed, p.passes, len(wl.pool), p.wall.Seconds(), len(lats), p.passes, r.attempted, r.failed, r.retries)
	return map[string]metric{
		"setup_s":          {setupS, "s"},
		"jobs_per_s":       {n / wall.Seconds(), "1/s"},
		"latency_p50_ms":   {p50, "ms"},
		"latency_p90_ms":   {p90, "ms"},
		"cpu_ms_per_job":   {ms(cpu) / n, "ms"},
		"alloc_mb_per_job": {float64(p.alloc) / (1 << 20) / float64(len(p.samples)), "MB"},
		"retained_heap_mb": {p.heapMB, "MB"},
		"writing_time_rel": {r.writingRel(), "ratio"},
	}, r, nil
}

// buildID names this build of the benchmark and the program by a hash of
// the running executable, so a digest book only ever compares runs of one
// build.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("hashing %s: %w", exe, err)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
