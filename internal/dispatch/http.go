// HTTP surface of the dispatcher. The dispatcher implements service.API,
// so the fleet front-end serves the single-node /v1 routes (listed in the
// service package documentation) through the very same handler set: stats
// aggregate across the nodes, submissions are routed by instance shape
// key, and status, result, cancel and the event stream are proxied
// from the owning node, the stream re-attached across failover.
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

	"eblow/internal/service"
)

// NewHandler mounts the dispatcher's public API: service.NewHandler over
// the dispatcher. Like the single-node handler it is unauthenticated;
// cmd/eblowd wraps it with Keyring.Wrap when started with -auth-keys.
func NewHandler(d *Dispatcher) http.Handler { return service.NewHandler(d) }

// WireSubmit implements service.API. The request's API key is not read:
// per-key quotas and key stamps apply only on a node.
func (d *Dispatcher) WireSubmit(_ context.Context, body []byte) (any, error) {
	return d.Submit(body)
}

// WireStatus implements service.API.
func (d *Dispatcher) WireStatus(ctx context.Context, id string) (any, error) {
	return d.Status(ctx, id)
}

// WireResult implements service.API. A backend refusal keeps the node's
// message and maps to the matching status: 404 and 409 as on a node, any
// other code to 502.
func (d *Dispatcher) WireResult(ctx context.Context, id string) (any, error) {
	doc, code, err := d.Result(ctx, id)
	switch {
	case err != nil:
		return nil, err
	case code == http.StatusOK:
		return doc, nil
	}
	kind := service.ErrUpstream
	switch code {
	case http.StatusNotFound:
		kind = service.ErrNotFound
	case http.StatusConflict:
		kind = service.ErrNotReady
	}
	msg, _ := doc["error"].(string)
	if msg == "" {
		msg = fmt.Sprintf("dispatch: node %s answered HTTP %d", doc["node"], code)
	}
	return nil, &wireError{msg, kind}
}

// WireCancel implements service.API.
func (d *Dispatcher) WireCancel(ctx context.Context, id string) (any, error) {
	return d.Cancel(ctx, id)
}

// WireList implements service.API.
func (d *Dispatcher) WireList(context.Context) any { return d.List() }

// WireStats implements service.API.
func (d *Dispatcher) WireStats(ctx context.Context) any { return d.Stats(ctx) }

// WireEvents implements service.API with StreamEvents.
func (d *Dispatcher) WireEvents(ctx context.Context, id string) (func(io.Writer, func()), error) {
	if _, _, _, err := d.route(id); err != nil {
		return nil, err
	}
	return func(w io.Writer, flush func()) { _ = d.StreamEvents(ctx, id, w, flush) }, nil
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
