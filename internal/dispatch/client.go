package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"eblow/internal/service"
)

// shortTimeout bounds every non-streaming backend call: a node that cannot
// answer a status or list request within it counts as a failed probe.
const shortTimeout = 10 * time.Second

// nodeClient speaks the service HTTP API to one backend solver node. It is
// stateless and safe for concurrent use; health bookkeeping lives on the
// Dispatcher's nodeState, not here.
type nodeClient struct {
	name string
	base string // URL without trailing slash
	// short serves every request that must answer promptly; stream has no
	// client timeout so NDJSON event streams can stay open for the life of
	// a job (cancellation flows through the request context instead).
	short  *http.Client
	stream *http.Client
}

func newNodeClient(name, baseURL string, transport http.RoundTripper) *nodeClient {
	if transport == nil {
		transport = http.DefaultTransport
	}
	return &nodeClient{
		name:   name,
		base:   strings.TrimRight(baseURL, "/"),
		short:  &http.Client{Transport: transport, Timeout: shortTimeout},
		stream: &http.Client{Transport: transport},
	}
}

// decodeBody decodes a backend JSON response generically. UseNumber keeps
// int64 objectives intact when the dispatcher re-encodes the document for
// its own client.
func decodeBody(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.UseNumber()
	return dec.Decode(v)
}

// submit posts the job's submit body and returns the backend's job
// document. A non-202 answer is an error carrying the backend's message.
func (c *nodeClient) submit(ctx context.Context, body []byte) (map[string]any, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.short.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("dispatch: node %s rejected the job: %s", c.name, readError(resp))
	}
	var m map[string]any
	if err := decodeBody(resp.Body, &m); err != nil || m == nil {
		return nil, fmt.Errorf("dispatch: node %s returned an unreadable job document: %v", c.name, err)
	}
	return m, nil
}

// listJobs fetches the node's full job list; it doubles as the health
// probe and the per-job state sync.
func (c *nodeClient) listJobs(ctx context.Context) ([]map[string]any, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.short.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("dispatch: node %s job list: %s", c.name, readError(resp))
	}
	var out []map[string]any
	if err := decodeBody(resp.Body, &out); err != nil {
		return nil, fmt.Errorf("dispatch: node %s job list: %w", c.name, err)
	}
	return out, nil
}

// get proxies one GET (status or result) and returns the document plus the
// backend's status code.
func (c *nodeClient) get(ctx context.Context, path string) (map[string]any, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.short.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := decodeBody(resp.Body, &m); err != nil || m == nil {
		return nil, resp.StatusCode, fmt.Errorf("dispatch: node %s returned an unreadable document for %s: %v", c.name, path, err)
	}
	return m, resp.StatusCode, nil
}

// cancel proxies DELETE /v1/jobs/{id}.
func (c *nodeClient) cancel(ctx context.Context, backendID string) (map[string]any, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.base+"/v1/jobs/"+backendID, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.short.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := decodeBody(resp.Body, &m); err != nil || m == nil {
		return nil, resp.StatusCode, fmt.Errorf("dispatch: node %s returned an unreadable cancel reply: %v", c.name, err)
	}
	return m, resp.StatusCode, nil
}

// events opens the backend's NDJSON event stream for the job. The caller
// owns the returned body and must close it; the stream ends when the job
// goes terminal, the backend dies, or ctx is cancelled.
func (c *nodeClient) events(ctx context.Context, backendID string) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+backendID+"/events", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.stream.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, fmt.Errorf("dispatch: node %s event stream: %s", c.name, readError(resp))
	}
	return resp.Body, nil
}

// stats fetches the node's operational snapshot.
func (c *nodeClient) stats(ctx context.Context) (service.Stats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/stats", nil)
	if err != nil {
		return service.Stats{}, err
	}
	resp, err := c.short.Do(req)
	if err != nil {
		return service.Stats{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return service.Stats{}, fmt.Errorf("dispatch: node %s stats: %s", c.name, readError(resp))
	}
	var s service.Stats
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return service.Stats{}, fmt.Errorf("dispatch: node %s stats: %w", c.name, err)
	}
	return s, nil
}

// readError extracts the backend's error message from a non-2xx reply,
// falling back to the HTTP status line.
func readError(resp *http.Response) string {
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&body); err == nil && body.Error != "" {
		return fmt.Sprintf("%s (%s)", body.Error, resp.Status)
	}
	return resp.Status
}
