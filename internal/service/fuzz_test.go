package service

import (
	"bytes"
	"fmt"
	"testing"

	"eblow"
)

// FuzzParseSubmit fuzzes the POST /v1/jobs decoder that both a node and the
// dispatcher front-end run on untrusted bodies. The invariants: no panic,
// and every accepted body yields a spec that would queue a runnable job —
// a valid instance, strategies the registry knows for its kind, and
// parameters in range (workers and restarts >= 0, seed in [0, 2^62), a
// deadline that is positive when set).
func FuzzParseSubmit(f *testing.F) {
	// The smoke-test submissions.
	f.Add([]byte(`{"benchmark": "1T-2", "params": {"seed": 1}}`))
	f.Add([]byte(`{"benchmark": "2T-1", "solver": "portfolio", "params": {"seed": 1, "deadline": "60s"}}`))
	f.Add([]byte(`{"benchmark": "1T-1", "solver": "greedy"}`))
	// Bodies that must be rejected.
	f.Add([]byte(`{"benchmark": "1T-1", "solver": "sa24"}`))
	f.Add([]byte(`{"benchmark": "1T-1", "params": {"strategies": ["greedy", "portfolio"]}}`))
	f.Add([]byte(`{"benchmark": "1T-1", "params": {"seed": -1, "deadline": "-1s"}}`))
	var inst bytes.Buffer
	if err := eblow.EncodeInstance(&inst, eblow.SmallInstance(eblow.OneD, 6, 2, 1)); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(fmt.Sprintf(`{"instance": %s, "label": "inline", "params": {"workers": 2, "restarts": 1}}`, inst.String())))

	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := ParseSubmit(body)
		if err != nil {
			return
		}
		if spec.Instance == nil {
			t.Fatal("accepted body has no instance")
		}
		if err := spec.Instance.Validate(); err != nil {
			t.Fatalf("accepted instance is invalid: %v", err)
		}
		if err := checkStrategies(spec); err != nil {
			t.Fatalf("accepted strategies: %v", err)
		}
		p := spec.Params
		if p.Workers < 0 || p.Restarts < 0 || p.Seed < 0 || p.Seed >= maxWireSeed || p.Deadline < 0 {
			t.Fatalf("accepted params out of range: %+v", p)
		}
	})
}
