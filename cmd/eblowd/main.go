// Command eblowd is the batched OSP job server: a long-running HTTP service
// that queues many stencil-planning instances, drains them through one
// bounded worker pool shared across all jobs, and streams per-job progress
// events. Any strategy of the unified solver registry can be scheduled by
// name ("eblow", "greedy", "heuristic24", "row25", "sa24", "exact",
// "portfolio").
//
// The server is hardened for sustained traffic: finished job records are
// evicted after -record-ttl so memory stays bounded, and once -max-pending
// jobs are waiting new submissions are rejected with 429 Too Many Requests
// instead of growing the queue without limit.
//
// With -wal the job queue is durable: every accepted job is fsynced to a
// write-ahead log before the 202 ack (concurrent submits share one fsync;
// start and finish records ride the next one), so a crash or kill -9 loses
// nothing — on restart the log replays, unfinished jobs re-enqueue in their
// original order (re-solving is deterministic for fixed seeds), finished
// jobs stay readable as digest-only records, and the log compacts itself
// once it outgrows -wal-max-bytes.
//
// With -auth-keys every request must present an API key from the given file
// (one "name secret [readonly] [pending=N] [rate=R] [burst=B]" per line)
// via "Authorization: Bearer <secret>" or "X-API-Key": unknown keys get
// 401, read-only keys get 403 on mutating methods, and each key is bounded
// by a token-bucket request rate plus a pending-job quota (both 429). The
// key's name is stamped into job records, events and the WAL.
//
// With -learn-path the server keeps one learned-scheduling store shared by
// every job: portfolio races are reordered and pruned by the accumulated
// per-shape win rates, every race outcome is recorded back, and the store
// is persisted after each job. GET /v1/learn exposes the statistics.
//
// By default (-batch) the queue drains through a cost-model scheduler
// instead of FIFO order: cheap jobs are estimated (chars x regions x
// strategy, sharpened by the learn store's measured runtimes when one is
// loaded) and may overtake expensive ones, and compatible small jobs are
// grouped into cohorts (-batch-size, -batch-chars) that share one worker
// sweep of plain solver calls. Per-job results stay bit-identical
// to solo FIFO execution, and -aging hard-bounds how many later jobs may
// overtake a waiting one (no starvation). GET /v1/stats exposes the queue
// depth and the scheduler's counters; -batch=false restores the plain
// FIFO drain.
//
// With -dispatch the process becomes a fleet front-end instead of a solver:
// it owns the public API and shards submitted jobs across the named backend
// eblowd nodes by consistent hashing on the instance's learned-scheduling
// fingerprint, so every job of one shape lands on the same node and that
// node's learn store and batch cohorts stay hot. Status, results, cancels
// and event streams are proxied back; GET /v1/stats and GET /v1/learn
// aggregate across the fleet. With -wal the dispatcher keeps its own log of
// accepted submissions, with the same format and fsync policy as a node's
// job log: when a backend node dies (detected after -fail-after failed
// probes, probed every -health-interval), its unfinished jobs are
// re-dispatched to the surviving nodes from the logged specs — deterministic
// re-solving makes the failed-over results bit-identical. Solver-side flags
// (-workers, -batch, -learn-path, ...) are ignored in dispatch mode; they
// belong to the backend nodes. -auth-keys guards the dispatcher's front
// door, but per-key pending quotas and key stamps apply only on a node.
//
// Both modes serve the same /v1 API through one handler set (the route
// list is in package eblow/internal/service; docs/eblowd-api.md is the
// full reference).
//
// Examples:
//
//	eblowd -addr 127.0.0.1:8080 -workers 8
//	eblowd -addr 127.0.0.1:8080 -learn-path eblow.learn.json
//	eblowd -addr 127.0.0.1:8090 -dispatch "a=http://127.0.0.1:8081,b=http://127.0.0.1:8082" -wal dispatch.wal
//	curl -s localhost:8080/v1/jobs -d '{"benchmark": "1T-1", "params": {"seed": 1}}'
//	curl -s localhost:8080/v1/jobs/j1
//	curl -sN localhost:8080/v1/jobs/j1/events
//	curl -s -X DELETE localhost:8080/v1/jobs/j1
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"time"

	"eblow"
	"eblow/internal/dispatch"
	"eblow/internal/service"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("eblowd: ")

	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address (use port 0 for a random free port)")
		workers     = flag.Int("workers", runtime.NumCPU(), "worker pool size shared by every submitted job")
		recordTTL   = flag.Duration("record-ttl", time.Hour, "how long finished job records stay readable (0 keeps them forever)")
		maxPending  = flag.Int("max-pending", 1024, "max queued jobs before submissions are rejected with 429 (0 = unbounded)")
		learnPath   = flag.String("learn-path", "", "JSON store for learned portfolio scheduling, shared across all jobs and persisted after each race (\"\" disables learning)")
		walPath     = flag.String("wal", "", "durable write-ahead job log: accepted jobs are fsynced before the ack and replayed on restart (\"\" disables durability)")
		walMaxBytes = flag.Int64("wal-max-bytes", service.DefaultWALMaxBytes, "compact the WAL to a live-job snapshot once it exceeds this size")
		authKeys    = flag.String("auth-keys", "", "API key file (one \"name secret [readonly] [pending=N] [rate=R] [burst=B]\" per line); \"\" serves unauthenticated")
		batchOn     = flag.Bool("batch", true, "cost-model scheduling + batched cohort execution of compatible queued jobs (per-job results stay bit-identical to the FIFO drain)")
		batchSize   = flag.Int("batch-size", 8, "max jobs per execution cohort")
		batchChars  = flag.Int("batch-chars", 400, "largest instance (characters) that may join a cohort; bigger jobs run solo")
		aging       = flag.Int("aging", 16, "scheduler aging bound: max later-submitted jobs that may overtake a waiting job (-1 = strict submission order)")

		dispatchNodes  = flag.String("dispatch", "", "run as a fleet front-end instead of a solver: comma-separated \"name=url\" backend eblowd nodes to shard jobs across (\"\" runs the normal single-node server)")
		vnodes         = flag.Int("vnodes", dispatch.DefaultVNodes, "dispatch mode: virtual nodes per backend on the consistent-hash ring")
		healthInterval = flag.Duration("health-interval", time.Second, "dispatch mode: backend probe-and-sync period")
		failAfter      = flag.Int("fail-after", 3, "dispatch mode: consecutive failed probes before a node is declared dead and its jobs fail over")
	)
	flag.Parse()

	if *dispatchNodes != "" {
		runDispatch(*addr, *dispatchNodes, *walPath, *authKeys, *vnodes, *healthInterval, *failAfter)
		return
	}

	var store *eblow.LearnStore
	if *learnPath != "" {
		var err error
		if store, err = eblow.OpenLearn(*learnPath); err != nil {
			log.Fatal(err)
		}
		log.Printf("learned scheduling on, store %s", *learnPath)
	}

	var wal *service.WAL
	if *walPath != "" {
		var err error
		if wal, err = service.OpenWAL(*walPath, *walMaxBytes); err != nil {
			log.Fatal(err)
		}
	}

	batchCfg := service.BatchConfig{Enabled: *batchOn, MaxBatch: *batchSize, MaxChars: *batchChars, MaxJump: *aging}
	if *batchOn {
		log.Printf("batch scheduling on: cohorts up to %d jobs of <= %d characters, aging bound %d", *batchSize, *batchChars, *aging)
	}
	m := service.New(service.Config{Workers: *workers, RecordTTL: *recordTTL, MaxPending: *maxPending, Learn: store, WAL: wal, Batch: batchCfg})
	if wal != nil {
		// New consumed the log: report what the replay found (the chaos
		// test greps this line).
		s := wal.Stats()
		log.Printf("wal %s: %d records, %d jobs resumed, %d terminal records restored, %d lines skipped",
			*walPath, s.Records, s.Resumed, s.Terminal, s.SkippedLines)
	}

	serve(*addr, *authKeys, m, fmt.Sprintf("%d workers", m.Workers()), m.Close)
}

// serve mounts the /v1 API for api (a node or a dispatcher), wrapped in
// the -auth-keys keyring when one is given, and serves it until SIGINT.
// Ctrl-C drains in-flight requests and exits instead of dropping
// connections mid-response: closeAPI runs first — it cancels a node's jobs
// or stops the dispatcher, which ends open /v1/jobs/{id}/events streams, so
// the HTTP drain cannot park behind an attached subscriber. Backend nodes
// of a dispatcher are separate processes and keep running.
func serve(addr, authKeys string, api service.API, what string, closeAPI func()) {
	handler := service.NewHandler(api)
	if authKeys != "" {
		keyring, err := service.LoadKeyring(authKeys)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("auth on, %d API keys from %s", keyring.Len(), authKeys)
		handler = keyring.Wrap(handler)
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: handler}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		log.Print("shutting down")
		closeAPI()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
	}()

	// The smoke tests parse this line to find a randomly assigned port.
	fmt.Printf("eblowd: %s, listening on http://%s\n", what, ln.Addr())
	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	// Serve returns as soon as Shutdown starts; wait for the drain and the
	// API teardown to actually finish before exiting.
	<-shutdownDone
}

// parseNodes parses the -dispatch value: comma-separated "name=url" pairs.
func parseNodes(spec string) ([]dispatch.NodeConfig, error) {
	var nodes []dispatch.NodeConfig
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url, ok := strings.Cut(part, "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("bad -dispatch entry %q: want name=url", part)
		}
		nodes = append(nodes, dispatch.NodeConfig{Name: name, URL: url})
	}
	if len(nodes) == 0 {
		return nil, errors.New("-dispatch names no nodes")
	}
	return nodes, nil
}

// runDispatch is the -dispatch main: fleet front-end instead of solver.
func runDispatch(addr, nodesSpec, walPath, authKeys string, vnodes int, healthInterval time.Duration, failAfter int) {
	nodes, err := parseNodes(nodesSpec)
	if err != nil {
		log.Fatal(err)
	}

	var wal *dispatch.WAL
	if walPath != "" {
		if wal, err = dispatch.OpenWAL(walPath); err != nil {
			log.Fatal(err)
		}
	}

	d, err := dispatch.New(dispatch.Config{
		Nodes:          nodes,
		VNodes:         vnodes,
		HealthInterval: healthInterval,
		FailAfter:      failAfter,
		WAL:            wal,
		Logf:           log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	if wal != nil {
		// New consumed the log: report what the replay found (the chaos
		// test greps this line).
		s := wal.Stats()
		log.Printf("dispatch wal %s: %d records, %d jobs resumed, %d terminal records restored, %d lines skipped",
			walPath, s.Records, s.Resumed, s.Terminal, s.SkippedLines)
	}

	serve(addr, authKeys, d, fmt.Sprintf("dispatching across %d nodes", len(nodes)), d.Close)
}
