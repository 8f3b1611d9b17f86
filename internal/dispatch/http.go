// HTTP surface of the dispatcher. The mux mirrors the single-node service
// API route for route, so clients cannot tell (and need not care) whether
// they talk to one solver or a fleet:
//
//	GET    /v1/solvers            registered strategies (served locally)
//	GET    /v1/stats              fleet-aggregated stats (per node + sums)
//	GET    /v1/learn              fleet-merged learned-scheduling stats
//	POST   /v1/jobs               submit; routed by instance fingerprint
//	GET    /v1/jobs               list public jobs in submission order
//	GET    /v1/jobs/{id}          status, proxied from the owning node
//	GET    /v1/jobs/{id}/result   full result, proxied from the owning node
//	GET    /v1/jobs/{id}/events   NDJSON stream, re-attached across failover
//	DELETE /v1/jobs/{id}          cancel, proxied to the owning node
//
// Every backend document crosses rewriteJobDoc/rewriteEventLine on the way
// out: the backend's job ID is replaced with the public one and the owning
// node's name is added, without touching (or trusting) anything else in the
// document. Those rewrites plus proxyEvents are the fuzz surface —
// FuzzDispatchProxy feeds them malformed replies and torn NDJSON streams.
package dispatch

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"eblow"
	"eblow/internal/service"
)

// NewHandler mounts the dispatcher's public API. Like the single-node
// handler it is unauthenticated; cmd/eblowd wraps it with Keyring.Wrap
// when started with -auth-keys.
func NewHandler(d *Dispatcher) http.Handler {
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
		writeJSON(w, http.StatusOK, d.Stats(r.Context()))
	})
	mux.HandleFunc("GET /v1/learn", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, d.Learn(r.Context()))
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("dispatch: reading request: %w", err))
			return
		}
		doc, err := d.Submit(body)
		if err != nil {
			code := http.StatusBadRequest
			switch {
			case errors.Is(err, ErrClosed):
				code = http.StatusServiceUnavailable
			case errors.Is(err, service.ErrNotDurable):
				// Same contract as the single-node service: the job will
				// run, but a 202 must not promise durability the WAL could
				// not deliver.
				code = http.StatusInternalServerError
			}
			writeError(w, code, err)
			return
		}
		writeJSON(w, http.StatusAccepted, doc)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, d.List())
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		doc, err := d.Status(r.Context(), r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, doc)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		doc, code, err := d.Result(r.Context(), r.PathValue("id"))
		switch {
		case errors.Is(err, ErrNotFound):
			writeError(w, http.StatusNotFound, err)
		case errors.Is(err, ErrNodeDown):
			writeError(w, http.StatusBadGateway, err)
		case err != nil:
			writeError(w, http.StatusBadGateway, err)
		default:
			writeJSON(w, code, doc)
		}
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		doc, err := d.Cancel(r.Context(), r.PathValue("id"))
		switch {
		case errors.Is(err, ErrNotFound):
			writeError(w, http.StatusNotFound, err)
		case err != nil:
			writeError(w, http.StatusBadGateway, err)
		default:
			writeJSON(w, http.StatusOK, doc)
		}
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if _, _, _, err := d.route(id); err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		flusher, _ := w.(http.Flusher)
		flush := func() {}
		if flusher != nil {
			flush = flusher.Flush
		}
		_ = d.StreamEvents(r.Context(), id, w, flush)
	})
	return mux
}

// eventsPollInterval paces the re-attach loop while a job waits for a node
// (or for its failover re-dispatch).
const eventsPollInterval = 50 * time.Millisecond

// StreamEvents proxies the job's NDJSON event stream to w, surviving
// failover: when the owning node's stream breaks before a terminal event,
// the loop re-resolves the owner and re-attaches. A re-attached stream
// replays the (re-run) job's events from the start, so delivery across a
// failover is at-least-once; the stream still ends after exactly one
// terminal state. A job whose backend is gone but whose table entry is
// terminal gets one synthesized terminal event.
func (d *Dispatcher) StreamEvents(ctx context.Context, id string, w io.Writer, flush func()) error {
	if flush == nil {
		flush = func() {}
	}
	for {
		_, snap, ns, err := d.route(id)
		if err != nil {
			return err
		}
		if ns != nil {
			body, err := ns.client.events(ctx, snap.backendID)
			if err == nil {
				lastState, werr := proxyEvents(w, body, id, snap.node, flush)
				body.Close()
				if werr != nil && ctx.Err() != nil {
					return nil // client went away
				}
				if service.State(lastState).Terminal() {
					return nil
				}
				// The stream broke mid-job (backend died, or the job was
				// evicted): fall through, wait, and re-resolve the owner.
			}
		} else if snap.terminal {
			// The job finished without a reachable backend (cancelled while
			// unassigned, or restored terminal from the WAL): synthesize the
			// one terminal event the contract promises.
			ev := map[string]any{"job": id, "state": snap.state, "time": time.Now(), "synthesized": true}
			if snap.errMsg != "" {
				ev["message"] = snap.errMsg
			}
			b, err := json.Marshal(ev)
			if err != nil {
				return err
			}
			if _, err := w.Write(append(b, '\n')); err != nil {
				return nil
			}
			flush()
			return nil
		}
		select {
		case <-ctx.Done():
			return nil
		case <-d.stop:
			return nil
		case <-time.After(eventsPollInterval):
		}
	}
}

// rewriteJobDoc makes a backend job document public: the backend's job ID
// is replaced with the dispatcher's and the owning node is stamped in.
// The input map is never mutated — callers share cached documents across
// goroutines — and nothing else in the document is interpreted.
func rewriteJobDoc(doc map[string]any, publicID, node string) map[string]any {
	out := make(map[string]any, len(doc)+1)
	for k, v := range doc {
		out[k] = v
	}
	out["id"] = publicID
	if node != "" {
		out["node"] = node
	}
	return out
}

// rewriteJobJSON decodes one backend job document and rewrites it for the
// public API. UseNumber keeps int64 objectives intact through the
// re-encode. Malformed or non-object bodies are an error, never a panic —
// this is half of the FuzzDispatchProxy surface.
func rewriteJobJSON(body []byte, publicID, node string) (map[string]any, error) {
	var m map[string]any
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("dispatch: unreadable backend document: %w", err)
	}
	if m == nil {
		return nil, errors.New("dispatch: backend document is null")
	}
	return rewriteJobDoc(m, publicID, node), nil
}

// jobDocFields lifts the dispatcher's bookkeeping fields out of a public
// job document: the state, the result digest (nested under result), and
// the error message. Missing or mistyped fields read as "".
func jobDocFields(doc map[string]any) (state, digest, errMsg string) {
	state, _ = doc["state"].(string)
	errMsg, _ = doc["error"].(string)
	if res, ok := doc["result"].(map[string]any); ok {
		digest, _ = res["digest"].(string)
	}
	return state, digest, errMsg
}

// rewriteEventLine rewrites one backend NDJSON event line for the public
// stream: the backend job ID is replaced, the node is stamped in, and the
// event's state is lifted out so the caller can spot the terminal one. A
// line that is not one well-formed JSON object reports ok == false and is
// dropped by the proxy — a torn backend line must never corrupt the public
// stream.
func rewriteEventLine(line []byte, publicID, node string) (out []byte, state string, ok bool) {
	var m map[string]any
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.UseNumber()
	if err := dec.Decode(&m); err != nil || m == nil {
		return nil, "", false
	}
	if dec.More() {
		return nil, "", false // trailing garbage on the line
	}
	m["job"] = publicID
	if node != "" {
		m["node"] = node
	}
	state, _ = m["state"].(string)
	b, err := json.Marshal(m)
	if err != nil {
		return nil, "", false
	}
	return append(b, '\n'), state, true
}

// maxEventLine bounds one backend event line (1 MiB — events are small;
// anything bigger is a corrupt or hostile stream).
const maxEventLine = 1 << 20

// proxyEvents copies a backend NDJSON event stream to dst line by line,
// rewriting each event for the public API. Malformed lines (including the
// torn tail of a stream cut by a node kill) are skipped. It returns the
// last event state seen and the error that ended the stream: a dst write
// error aborts (the public client is gone), src errors just end the copy.
func proxyEvents(dst io.Writer, src io.Reader, publicID, node string, flush func()) (lastState string, err error) {
	if flush == nil {
		flush = func() {}
	}
	sc := bufio.NewScanner(src)
	sc.Buffer(make([]byte, 0, 64*1024), maxEventLine)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		out, state, ok := rewriteEventLine(line, publicID, node)
		if !ok {
			continue
		}
		if _, werr := dst.Write(out); werr != nil {
			return lastState, werr
		}
		flush()
		if state != "" {
			lastState = state
		}
	}
	return lastState, sc.Err()
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
