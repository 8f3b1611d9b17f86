package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	"eblow"
	"eblow/internal/core"
	"eblow/internal/gen"
	"eblow/internal/solver"
)

// job is one generated request of a workload. The program under test only
// ever sees body; the client keeps inst, strategy and params to validate the
// returned plan and to re-solve the job directly in the traced run.
type job struct {
	idx      int
	inst     *core.Instance
	strategy string
	params   solver.Params
	body     []byte
}

// workload is a closed-loop traffic mix. The client sends the pool in order,
// burst jobs at a time, waits for every job of the burst, and wraps around
// at the end of the pool.
type workload struct {
	name string
	// nodes is the number of eblowd solver nodes; with dispatcher set, the
	// client talks to a dispatcher in front of them instead of to the node.
	nodes      int
	dispatcher bool
	burst      int
	// warmup is the number of bursts run before measuring; their jobs are
	// excluded from every metric.
	warmup int
	pool   []job
}

// workloadNames lists the workloads the program runs. BENCHMARK.json gates
// plan1d and plan2d; burst runs inside every traced run (see probeBurst)
// and on its own on request.
var workloadNames = []string{"plan1d", "plan2d", "burst"}

// poolSize is the number of distinct jobs per workload. A run measures
// whole passes over its pool, so every per-job figure is a mean over
// exactly these instances, and the pool is large enough that one seed's
// draw moves that mean by a few percent at most (E-BLOW 1D solve times
// vary by about a third from instance to instance).
var poolSize = map[string]int{"plan1d": 128, "plan2d": 100, "burst": 256}

// newWorkload generates the named workload from seed. The same seed always
// yields byte-identical request bodies.
func newWorkload(name string, seed int64) (*workload, error) {
	n, ok := poolSize[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	rng := rand.New(rand.NewSource(seed))
	w := &workload{name: name, nodes: 1, burst: 1, warmup: 3}
	switch name {
	case "burst":
		w.nodes, w.dispatcher, w.burst, w.warmup = 2, true, 16, 2
	}
	for i := 0; i < n; i++ {
		j, err := genJob(name, i, rng)
		if err != nil {
			return nil, err
		}
		w.pool = append(w.pool, j)
	}
	return w, nil
}

// genJob draws pool entry i of the named workload.
func genJob(name string, i int, rng *rand.Rand) (job, error) {
	s := rng.Int63()
	p := solver.Params{Workers: 1, Seed: 1 + int64(i%5)}
	var in *core.Instance
	strategy := "eblow"
	switch name {
	case "plan1d":
		in = gen.Generate(gen.Params{
			Kind: core.OneD, NumChars: 600, NumRegions: 10,
			StencilW: 800, StencilH: 800, RowHeight: 40,
			MinWidth: 28, MaxWidth: 44, MinBlank: 4, MaxBlank: 14,
			MinShots: 2, MaxShots: 60, ShotAreaUnit: 45,
			MaxRepeat: 25, RegionSkew: 0.85, Seed: s,
		})
	case "plan2d":
		in = gen.Generate(gen.Params{
			Kind: core.TwoD, NumChars: 200, NumRegions: 10,
			StencilW: 400, StencilH: 400,
			MinWidth: 28, MaxWidth: 48, MinHeight: 28, MaxHeight: 48,
			MinBlank: 4, MaxBlank: 14,
			MinShots: 2, MaxShots: 60, ShotAreaUnit: 45,
			MaxRepeat: 25, RegionSkew: 0.85, Seed: s,
		})
	case "burst":
		// Tiny batchable jobs in a fixed rotation, so every burst carries
		// the same mix of classes.
		switch i % 3 {
		case 0:
			strategy, in = "sa24", gen.Small(core.TwoD, 14+rng.Intn(11), 2, s)
		case 1:
			strategy, in = "greedy", gen.Small(core.OneD, 24+rng.Intn(17), 2, s)
		default:
			strategy, in = "row25", gen.Small(core.OneD, 24+rng.Intn(17), 2, s)
		}
	default:
		return job{}, fmt.Errorf("unknown workload %q", name)
	}
	in.Name = fmt.Sprintf("%s-%d", name, i)
	body, err := encodeBody(in, strategy, p, fmt.Sprintf("%s/%d", name, i))
	if err != nil {
		return job{}, err
	}
	return job{idx: i, inst: in, strategy: strategy, params: p, body: body}, nil
}

// encodeBody renders one POST /v1/jobs request with an inline instance.
func encodeBody(in *core.Instance, strategy string, p solver.Params, label string) ([]byte, error) {
	var inst bytes.Buffer
	if err := eblow.EncodeInstance(&inst, in); err != nil {
		return nil, fmt.Errorf("encode instance %s: %w", in.Name, err)
	}
	type params struct {
		Workers int   `json:"workers"`
		Seed    int64 `json:"seed"`
	}
	return json.Marshal(struct {
		Instance json.RawMessage `json:"instance"`
		Solver   string          `json:"solver"`
		Label    string          `json:"label"`
		Params   params          `json:"params"`
	}{inst.Bytes(), strategy, label, params{p.Workers, p.Seed}})
}

// strategyMetric names the solver.* metric a job's solve counts towards.
func strategyMetric(j job) string {
	if j.strategy == "eblow" {
		if j.inst.Kind == core.OneD {
			return "eblow1d"
		}
		return "eblow2d"
	}
	return j.strategy
}
