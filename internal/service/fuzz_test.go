package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"eblow"
)

// parseSubmitRef is the two-pass POST /v1/jobs parser ParseSubmit
// replaced: the request decoded with unknown fields disallowed and the
// instance kept as json.RawMessage, then decoded again by
// eblow.DecodeInstance. FuzzParseSubmit holds ParseSubmit to its
// accept/reject decisions and its specs.
func parseSubmitRef(body []byte) (JobSpec, error) {
	var req submitRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return JobSpec{}, fmt.Errorf("service: decoding request: %w", err)
	}
	var in *eblow.Instance
	var err error
	switch {
	case req.Benchmark != "" && len(req.Instance) > 0:
		return JobSpec{}, errors.New("service: use either benchmark or instance, not both")
	case req.Benchmark != "":
		if in, err = eblow.Benchmark(req.Benchmark); err != nil {
			return JobSpec{}, err
		}
	case len(req.Instance) > 0:
		if in, err = eblow.DecodeInstance(bytes.NewReader(req.Instance)); err != nil {
			return JobSpec{}, err
		}
	default:
		return JobSpec{}, errors.New("service: one of benchmark or instance is required")
	}
	p, err := req.Params.params()
	if err != nil {
		return JobSpec{}, err
	}
	spec := JobSpec{Instance: in, Solver: req.Solver, Params: p, Label: req.Label}
	if err := checkStrategies(spec); err != nil {
		return JobSpec{}, err
	}
	return spec, nil
}

// FuzzParseSubmit fuzzes the POST /v1/jobs decoder that both a node and the
// dispatcher front-end run on untrusted bodies. The invariants: no panic;
// ParseSubmit accepts exactly the bodies parseSubmitRef accepts, with an
// equal spec and an equal decoded instance; the instance bytes it keeps
// decode to that same instance and sit on one line; the body value
// ParseSubmitBody returns sits on one line and parses to the same spec; and
// every accepted body yields a spec that would queue a runnable job — a
// valid instance, strategies the registry knows for its kind, and
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
	f.Add([]byte(`{"benchmark": "1T-1", "params": {"seed": 1, "fast": true}}`))
	f.Add([]byte(`{"benchmark": "1T-1", "priority": 3}`))
	var inst bytes.Buffer
	if err := eblow.EncodeInstance(&inst, eblow.SmallInstance(eblow.OneD, 6, 2, 1)); err != nil {
		f.Fatal(err)
	}
	// An indented instance, as EncodeInstance writes it.
	f.Add([]byte(fmt.Sprintf(`{"instance": %s, "label": "inline", "params": {"workers": 2, "restarts": 1}}`, inst.String())))
	var compact bytes.Buffer
	if err := json.Compact(&compact, inst.Bytes()); err != nil {
		f.Fatal(err)
	}
	c := compact.String()
	// Mixed-case keys, at the top level, in params and in the instance.
	f.Add([]byte(`{"INSTANCE":` + c + `,"Solver":"greedy","PARAMS":{"Seed":3},"laBel":"x"}`))
	f.Add([]byte(`{"Instance":` + c[:len(c)-1] + `,"NAME":"upper"}}`))
	f.Add([]byte(`{"benchmark":"1T-1","ſolver":"greedy"}`)) // U+017F folds to 's
	// Unknown instance fields, which the instance decoder ignores.
	f.Add([]byte(`{"instance":` + c[:len(c)-1] + `,"vendor":{"tool":"x","rev":[1,2]}},"solver":"greedy"}`))
	// '<' and '&' inside names, which json.Marshal would escape.
	f.Add([]byte(`{"instance":` + c[:len(c)-1] + `,"name":"a<b>&c"},"label":"<&>"}`))
	// A repeated key (the last one wins), a null instance, trailing bytes.
	f.Add([]byte(`{"instance":{"name":5},"instance":` + c + `}`))
	f.Add([]byte(`{"instance":null}`))
	f.Add([]byte(`{"benchmark":"1T-1","instance":null}`))
	f.Add([]byte(`{"benchmark":"1T-1"} trailing`))

	f.Fuzz(func(t *testing.T, body []byte) {
		want, wantErr := parseSubmitRef(body)
		spec, err := ParseSubmit(body)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("ParseSubmit error %v, two-pass parser error %v", err, wantErr)
		}
		if err != nil {
			return
		}
		sameSpec(t, "ParseSubmit", spec, want)
		if spec.instJSON != nil {
			if bytes.ContainsAny(spec.instJSON, "\n\r") {
				t.Fatalf("kept instance bytes span lines: %q", spec.instJSON)
			}
			in, err := eblow.DecodeInstance(bytes.NewReader(spec.instJSON))
			if err != nil {
				t.Fatalf("kept instance bytes do not decode: %v", err)
			}
			if !reflect.DeepEqual(in, spec.Instance) {
				t.Fatal("kept instance bytes decode to another instance")
			}
		}
		bspec, value, err := ParseSubmitBody(body)
		if err != nil {
			t.Fatalf("ParseSubmitBody rejects what ParseSubmit accepts: %v", err)
		}
		sameSpec(t, "ParseSubmitBody", bspec, want)
		if bytes.ContainsAny(value, "\n\r") {
			t.Fatalf("body value spans lines: %q", value)
		}
		vspec, err := ParseSubmit(value)
		if err != nil {
			t.Fatalf("body value %q does not parse: %v", value, err)
		}
		sameSpec(t, "the body value", vspec, want)

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

// sameSpec fails the test unless got carries want's exported fields and an
// equal instance.
func sameSpec(t *testing.T, what string, got, want JobSpec) {
	t.Helper()
	if !reflect.DeepEqual(got.Instance, want.Instance) {
		t.Fatalf("%s: instance differs from the two-pass parser's", what)
	}
	got.Instance, want.Instance = nil, nil
	got.checked, got.instJSON = nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: spec %+v, two-pass parser %+v", what, got, want)
	}
}
