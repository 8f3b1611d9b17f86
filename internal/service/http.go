// HTTP/JSON surface of eblowd. One handler set serves both a single
// solver node (*Manager) and the fleet front-end (*dispatch.Dispatcher):
// each implements API, and NewHandler mounts either behind the same routes,
// encoder and error-to-status table, so a client cannot tell (and need not
// care) whether it talks to one solver or a fleet:
//
//	GET    /v1/solvers            registered strategies
//	GET    /v1/stats              queue depth, per-state job counts, batch counters
//	                              (fleet: per node plus fleet-wide sums)
//	POST   /v1/jobs               submit a job (benchmark name or inline instance)
//	GET    /v1/jobs               list jobs in submission order
//	GET    /v1/jobs/{id}          job status (compact result summary)
//	GET    /v1/jobs/{id}/result   full result including the stencil plan
//	GET    /v1/jobs/{id}/events   NDJSON progress stream until terminal
//	DELETE /v1/jobs/{id}          cancel
//
// The handler itself is unauthenticated; cmd/eblowd wraps it with
// Keyring.Wrap when started with -auth-keys, which adds the 401/403/429
// auth semantics documented in auth.go.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"eblow"
	"eblow/internal/jsonlex"
)

// API is the backend behind the /v1 routes. Each method returns the wire
// document, which the handler encodes as-is, or an error that statusOf
// maps to the HTTP status.
type API interface {
	// WireSubmit accepts one POST /v1/jobs body; ctx carries the
	// request's API key, if any (KeyFromContext).
	WireSubmit(ctx context.Context, body []byte) (any, error)
	WireStatus(ctx context.Context, id string) (any, error)
	// WireResult fails with ErrNotReady until the job is terminal.
	WireResult(ctx context.Context, id string) (any, error)
	WireCancel(ctx context.Context, id string) (any, error)
	WireList(ctx context.Context) any
	WireStats(ctx context.Context) any
	// WireEvents resolves the job's event stream. An unknown job fails
	// here, before any header is written; otherwise the returned function
	// writes one JSON line per event to w, calling flush after each, until
	// the job is terminal or ctx is done.
	WireEvents(ctx context.Context, id string) (func(w io.Writer, flush func()), error)
}

// ErrNotReady is returned (wrapped) for the result of a job that is not
// terminal yet; the handler maps it to 409.
var ErrNotReady = errors.New("result not ready")

// ErrUpstream marks a fleet front-end failure to reach, or be served by, the
// node owning a job; the handler maps it to 502.
var ErrUpstream = errors.New("service: upstream node failed")

// maxSubmitBytes bounds a POST /v1/jobs body (413 beyond it). The largest
// built-in instance, 2M-8, encodes to about 1.4 MB.
const maxSubmitBytes = 32 << 20

// statusOf is the one error-to-status table of the /v1 surface.
func statusOf(err error) int {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrNotReady):
		return http.StatusConflict
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrKeyQuota):
		// Backpressure, not failure: the client should retry later.
		return http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrNotDurable):
		// The job is queued but its WAL record could not be synced; the
		// ack must not promise durability it cannot keep.
		return http.StatusInternalServerError
	case errors.Is(err, ErrUpstream):
		return http.StatusBadGateway
	default:
		return http.StatusBadRequest // a submission that failed validation
	}
}

// NewHandler mounts the /v1 API for a node or a fleet front-end.
func NewHandler(api API) http.Handler {
	reply := func(w http.ResponseWriter, code int, doc any, err error) {
		if err != nil {
			writeError(w, statusOf(err), err)
			return
		}
		writeJSON(w, code, doc)
	}
	job := func(get func(context.Context, string) (any, error)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			doc, err := get(r.Context(), r.PathValue("id"))
			reply(w, http.StatusOK, doc, err)
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/solvers", func(w http.ResponseWriter, r *http.Request) {
		type info struct {
			Name   string `json:"name"`
			Doc    string `json:"doc"`
			OneD   bool   `json:"oneD"`
			TwoD   bool   `json:"twoD"`
			Racing bool   `json:"racing"`
		}
		var out []info
		for _, e := range eblow.SolverInfos() {
			out = append(out, info{Name: e.Name, Doc: e.Doc, OneD: e.OneD, TwoD: e.TwoD, Racing: e.Racing})
		}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, api.WireStats(r.Context()))
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		body, err := readSubmitBody(w, r)
		if err != nil {
			err = fmt.Errorf("service: reading request: %w", err)
			writeError(w, statusOf(err), err)
			return
		}
		doc, err := api.WireSubmit(r.Context(), body)
		reply(w, http.StatusAccepted, doc, err)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, api.WireList(r.Context()))
	})
	mux.HandleFunc("GET /v1/jobs/{id}", job(api.WireStatus))
	mux.HandleFunc("GET /v1/jobs/{id}/result", job(api.WireResult))
	mux.HandleFunc("DELETE /v1/jobs/{id}", job(api.WireCancel))
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		stream, err := api.WireEvents(r.Context(), r.PathValue("id"))
		if err != nil {
			writeError(w, statusOf(err), err)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		flush := func() {}
		if f, ok := w.(http.Flusher); ok {
			flush = f.Flush
		}
		stream(w, flush)
	})
	// Unmatched requests get a JSON error like every other reply: 405 with
	// an Allow header when another method serves the path, 404 otherwise.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		var allow []string
		for _, method := range []string{http.MethodGet, http.MethodPost, http.MethodDelete} {
			if _, pattern := mux.Handler(&http.Request{Method: method, Host: r.Host, URL: r.URL}); pattern != "/" {
				allow = append(allow, method)
				if method == http.MethodGet {
					allow = append(allow, http.MethodHead) // GET routes serve HEAD too
				}
			}
		}
		if len(allow) == 0 {
			writeError(w, http.StatusNotFound, fmt.Errorf("service: no route for %s", r.URL.Path))
			return
		}
		w.Header().Set("Allow", strings.Join(allow, ", "))
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("service: %s does not serve %s", r.URL.Path, r.Method))
	})
	return mux
}

// readSubmitBody reads a POST /v1/jobs body. A declared length within the
// cap is read into one buffer of exactly that size; an unknown length (a
// chunked body) or one over the cap goes through io.ReadAll, where the
// MaxBytesReader trips at the cap.
func readSubmitBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, maxSubmitBytes)
	n := r.ContentLength
	if n <= 0 || n > maxSubmitBytes {
		return io.ReadAll(body)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(body, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// WireSubmit implements API: the body is parsed and validated by
// ParseSubmit, stamped with the request's API key, and queued.
func (m *Manager) WireSubmit(ctx context.Context, body []byte) (any, error) {
	spec, err := ParseSubmit(body)
	if err != nil {
		return nil, err
	}
	if key := KeyFromContext(ctx); key != nil {
		spec.Key = key.Name
		spec.KeyPending = key.MaxPending
	}
	status, err := m.Submit(spec)
	if err != nil {
		return nil, err
	}
	return jobJSON(status, false), nil
}

// WireStatus implements API.
func (m *Manager) WireStatus(_ context.Context, id string) (any, error) {
	status, err := m.Status(id)
	if err != nil {
		return nil, err
	}
	return jobJSON(status, false), nil
}

// WireResult implements API.
func (m *Manager) WireResult(_ context.Context, id string) (any, error) {
	status, err := m.Status(id)
	if err != nil {
		return nil, err
	}
	if !status.State.Terminal() {
		return nil, fmt.Errorf("service: job %s is %s, %w", status.ID, status.State, ErrNotReady)
	}
	return jobJSON(status, true), nil
}

// WireCancel implements API.
func (m *Manager) WireCancel(_ context.Context, id string) (any, error) {
	status, err := m.Cancel(id)
	if err != nil {
		return nil, err
	}
	return jobJSON(status, false), nil
}

// WireList implements API.
func (m *Manager) WireList(context.Context) any {
	statuses := m.List()
	out := make([]map[string]any, len(statuses))
	for i, s := range statuses {
		out[i] = jobJSON(s, false)
	}
	return out
}

// WireStats implements API.
func (m *Manager) WireStats(context.Context) any { return m.Stats() }

// WireEvents implements API.
func (m *Manager) WireEvents(ctx context.Context, id string) (func(io.Writer, func()), error) {
	events, err := m.Events(ctx, id)
	if err != nil {
		return nil, err
	}
	return func(w io.Writer, flush func()) {
		enc := json.NewEncoder(w)
		for e := range events {
			if enc.Encode(e) != nil {
				return
			}
			flush()
		}
	}, nil
}

// submitRequest is the POST /v1/jobs body: exactly one of Benchmark or
// Instance names the problem; Solver and Params pick the strategy.
// ParseSubmit reads it field by field (see parseSubmit); the struct
// documents the wire shape.
type submitRequest struct {
	Benchmark string          `json:"benchmark,omitempty"`
	Instance  json.RawMessage `json:"instance,omitempty"`
	Solver    string          `json:"solver,omitempty"`
	Label     string          `json:"label,omitempty"`
	Params    wireParams      `json:"params"`
}

// wireParams is the JSON shape of eblow.Params (deadline as a Go duration
// string such as "30s").
type wireParams struct {
	Workers    int      `json:"workers,omitempty"`
	Seed       int64    `json:"seed,omitempty"`
	Deadline   string   `json:"deadline,omitempty"`
	Restarts   int      `json:"restarts,omitempty"`
	Strategies []string `json:"strategies,omitempty"`
}

// ParseSubmit validates one POST /v1/jobs body and resolves it to a job
// spec: the instance, the parameter ranges and the strategy names. Both a
// node and the dispatcher front-end submit through it, so a fleet rejects a
// bad request identically to a single node — and never burns a WAL record
// or a backend round-trip on one. The spec remembers that it was checked,
// and an inline instance's JSON, so Manager.Submit neither validates it
// again nor re-encodes it for the WAL.
func ParseSubmit(body []byte) (JobSpec, error) {
	spec, _, err := parseSubmit(body)
	return spec, err
}

// ParseSubmitBody is ParseSubmit for a front-end that journals and forwards
// the body itself. It also returns the body's JSON value: a sub-slice of
// body (or, when body holds a newline, a compacted copy) that ends where
// the request object ends, so it fits on one WAL line and parses to the
// same spec.
func ParseSubmitBody(body []byte) (JobSpec, []byte, error) {
	spec, value, err := parseSubmit(body)
	if err != nil {
		return JobSpec{}, nil, err
	}
	return spec, compactJSON(value), nil
}

// requestFields are the POST /v1/jobs keys, as submitRequest's tags
// spell them.
var requestFields = []string{"benchmark", "instance", "solver", "label", "params"}

// parseSubmit decodes the body in one pass with a reflection-free reader:
// the request object key by key, each field's value straight into its
// destination, and the inline instance directly into an eblow.Instance
// whose bytes it slices out of body. It keeps the semantics of decoding
// into submitRequest with unknown fields disallowed and the instance
// decoded again by encoding/json: keys match case-insensitively, unknown
// top-level fields (and unknown params fields) are rejected, unknown
// instance fields are skipped, a repeated key's last value wins, nesting
// counts from the request object, and bytes after the request object are
// not read. value is the request object's own bytes.
func parseSubmit(body []byte) (spec JobSpec, value []byte, err error) {
	fail := func(err error) (JobSpec, []byte, error) {
		return JobSpec{}, nil, fmt.Errorf("service: decoding request: %w", err)
	}
	r := jsonlex.NewReader(body)
	if c := r.Peek(); c != '{' && c != 'n' { // a JSON null decodes to the empty request
		return fail(errors.New("the request is not a JSON object"))
	}
	start := r.Pos()
	var req submitRequest
	// The instance of the last "instance" key: its decoded value, its type
	// mismatch (reported only if no later key replaces it) and its bytes.
	var in *eblow.Instance
	var inErr error
	var inJSON []byte
	err = r.Object(func(key []byte) error {
		var err error
		switch jsonlex.Field(key, requestFields) {
		case "benchmark":
			err = r.String(&req.Benchmark)
		case "solver":
			err = r.String(&req.Solver)
		case "label":
			err = r.String(&req.Label)
		case "params":
			err = decodeParams(r, &req.Params)
		case "instance":
			from := r.Pos()
			in = new(eblow.Instance)
			if err := in.ReadJSON(r); err != nil {
				return err
			}
			inErr, inJSON = r.Mismatch(), body[from:r.Pos()]
			return nil
		default:
			return fmt.Errorf("json: unknown field %q", key)
		}
		if err != nil {
			return err
		}
		return r.Mismatch()
	})
	if err != nil {
		return fail(err)
	}
	value = body[start:r.Pos()]

	switch {
	case req.Benchmark != "" && inJSON != nil:
		return JobSpec{}, nil, errors.New("service: use either benchmark or instance, not both")
	case req.Benchmark != "":
		if in, err = eblow.Benchmark(req.Benchmark); err != nil {
			return JobSpec{}, nil, err
		}
		if err := in.Validate(); err != nil {
			return JobSpec{}, nil, fmt.Errorf("service: invalid instance: %w", err)
		}
	case inJSON != nil:
		// The same errors eblow.DecodeInstance reports.
		if inErr != nil {
			return JobSpec{}, nil, fmt.Errorf("eblow: decoding instance: %w", inErr)
		}
		if err := in.Validate(); err != nil {
			return JobSpec{}, nil, fmt.Errorf("eblow: invalid instance: %w", err)
		}
	default:
		return JobSpec{}, nil, errors.New("service: one of benchmark or instance is required")
	}
	p, err := req.Params.params()
	if err != nil {
		return JobSpec{}, nil, err
	}
	spec = JobSpec{Instance: in, Solver: req.Solver, Params: p, Label: req.Label}
	if err := checkStrategies(spec); err != nil {
		return JobSpec{}, nil, err
	}
	spec.checked = in
	if inJSON != nil {
		spec.instJSON = compactJSON(inJSON)
	}
	return spec, value, nil
}

// decodeParams reads the params value into wp with encoding/json,
// rejecting unknown fields. It decodes into the same wp for every "params"
// key, so repeated keys merge like a struct field decoded twice. The value
// is small, so reflection on it costs nothing worth saving.
func decodeParams(r *jsonlex.Reader, wp *wireParams) error {
	raw, err := r.Skip()
	if err != nil {
		return err
	}
	strict := json.NewDecoder(bytes.NewReader(raw))
	strict.DisallowUnknownFields()
	return strict.Decode(wp)
}

// compactJSON returns the JSON b on one line. Valid JSON holds a newline or
// carriage return only as whitespace, so bytes without one — the usual,
// machine-written body — come back as they are.
func compactJSON(b []byte) []byte {
	if bytes.IndexByte(b, '\n') < 0 && bytes.IndexByte(b, '\r') < 0 {
		return b
	}
	var buf bytes.Buffer
	buf.Grow(len(b))
	if err := json.Compact(&buf, b); err != nil {
		return b // unreachable for bytes the decoder accepted
	}
	return buf.Bytes()
}

// maxWireSeed caps submitted seeds: racing entrants add per-strategy
// offsets to the seed, and the cap leaves headroom so the sub-seed
// derivation can never overflow int64.
const maxWireSeed = int64(1) << 62

// params validates the wire fields and converts them to solver parameters.
// Negative or overflow-prone values are rejected here, at decode time, with
// a field-naming error — they would otherwise queue a doomed (negative
// deadline: instant expiry) or nonsensical (negative workers/restarts/seed)
// job that only fails once a worker picks it up.
func (wp wireParams) params() (eblow.Params, error) {
	if wp.Workers < 0 {
		return eblow.Params{}, fmt.Errorf("service: params.workers must be >= 0, got %d", wp.Workers)
	}
	if wp.Restarts < 0 {
		return eblow.Params{}, fmt.Errorf("service: params.restarts must be >= 0, got %d", wp.Restarts)
	}
	if wp.Seed < 0 || wp.Seed >= maxWireSeed {
		return eblow.Params{}, fmt.Errorf("service: params.seed must be in [0, 2^62), got %d", wp.Seed)
	}
	p := eblow.Params{
		Workers:    wp.Workers,
		Seed:       wp.Seed,
		Restarts:   wp.Restarts,
		Strategies: wp.Strategies,
	}
	if wp.Deadline != "" {
		d, err := time.ParseDuration(wp.Deadline)
		if err != nil {
			return eblow.Params{}, fmt.Errorf("service: bad params.deadline: %w", err)
		}
		if d <= 0 {
			return eblow.Params{}, fmt.Errorf("service: params.deadline must be positive, got %s", wp.Deadline)
		}
		p.Deadline = d
	}
	return p, nil
}

// jobJSON renders a status for the wire; full additionally inlines the
// stencil plan (solutions are big, so the compact form carries a summary
// only).
func jobJSON(s JobStatus, full bool) map[string]any {
	out := map[string]any{
		"id":        s.ID,
		"solver":    s.Solver,
		"instance":  s.Instance,
		"kind":      s.Kind.String(),
		"state":     string(s.State),
		"submitted": s.Submitted,
	}
	if s.Label != "" {
		out["label"] = s.Label
	}
	if s.Key != "" {
		out["key"] = s.Key
	}
	if s.Replayed {
		out["replayed"] = true
	}
	if !s.Started.IsZero() {
		out["started"] = s.Started
	}
	if !s.Finished.IsZero() {
		out["finished"] = s.Finished
	}
	if s.Err != nil {
		out["error"] = s.Err.Error()
	}
	if s.Result != nil {
		res := map[string]any{
			"strategy":  s.Result.Strategy,
			"objective": s.Result.Objective,
			"feasible":  s.Result.Feasible,
			"elapsedMs": s.Result.Elapsed.Milliseconds(),
		}
		if s.Result.Solution != nil {
			// Guarded: a cancelled or deadline-expired job can carry a
			// partial Result whose Solution is nil, and a terminal record
			// replayed from the WAL never has the plan — only the digest.
			res["selected"] = s.Result.Solution.NumSelected()
		}
		if s.Digest != "" {
			res["digest"] = s.Digest
		}
		if len(s.Result.Runs) > 0 {
			runs := make([]map[string]any, len(s.Result.Runs))
			for i, r := range s.Result.Runs {
				rj := map[string]any{"name": r.Name, "elapsedMs": r.Elapsed.Milliseconds(), "ok": r.Err == nil}
				if r.Err != nil {
					rj["error"] = r.Err.Error()
				} else if r.Solution != nil {
					rj["objective"] = r.Solution.WritingTime
				}
				runs[i] = rj
			}
			res["runs"] = runs
		}
		if full {
			res["solution"] = s.Result.Solution
		}
		out["result"] = res
	}
	return out
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
