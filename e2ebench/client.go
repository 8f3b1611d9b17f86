package main

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

	"eblow/internal/core"
)

// maxConns is the client's connection budget: one for submits and one for
// event streams and result reads, so the client never outnumbers the
// cores the nodes solve on.
const maxConns = 2

// client drives a fleet over loopback HTTP.
type client struct {
	hc *http.Client
}

func newClient() *client {
	tr := &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConns:        maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// jobDoc is the part of a job document the benchmark reads.
type jobDoc struct {
	ID        string    `json:"id"`
	Instance  string    `json:"instance"`
	State     string    `json:"state"`
	Error     string    `json:"error"`
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started"`
	Finished  time.Time `json:"finished"`
	Result    *struct {
		Strategy  string         `json:"strategy"`
		Objective int64          `json:"objective"`
		Feasible  bool           `json:"feasible"`
		Digest    string         `json:"digest"`
		Solution  *core.Solution `json:"solution"`
	} `json:"result"`
}

// do sends one request and decodes a JSON reply into out, failing on any
// status other than want.
func (c *client) do(ctx context.Context, method, url string, body []byte, want int, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: reading reply: %w", method, url, err)
	}
	if resp.StatusCode != want {
		return &statusError{code: resp.StatusCode, msg: fmt.Sprintf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(raw))}
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("%s %s: decoding reply: %w", method, url, err)
	}
	return nil
}

// statusError is a reply with an unexpected HTTP status.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return e.msg }

// retryable reports a result read the API documents as transient: the
// dispatcher answers 502 while a job waits to be re-homed to a node, and
// passes a node's 409 through while the re-homed copy is still solving.
func retryable(err error) bool {
	var se *statusError
	return errors.As(err, &se) && (se.code == http.StatusBadGateway || se.code == http.StatusConflict)
}

// submit posts one job and returns its accepted document.
func (c *client) submit(ctx context.Context, base string, body []byte) (jobDoc, error) {
	var doc jobDoc
	err := c.do(ctx, http.MethodPost, base+"/v1/jobs", body, http.StatusAccepted, &doc)
	return doc, err
}

// result reads a terminal job's full document, plan included.
func (c *client) result(ctx context.Context, base, id string) (jobDoc, error) {
	var doc jobDoc
	err := c.do(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/result", nil, http.StatusOK, &doc)
	return doc, err
}

// wait blocks on the job's NDJSON event stream until it reports a terminal
// state, and returns that state.
func (c *client) wait(ctx context.Context, base, id string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		return "", fmt.Errorf("events %s: HTTP %d: %s", id, resp.StatusCode, bytes.TrimSpace(raw))
	}
	state, err := readUntilTerminal(resp.Body)
	if err != nil {
		return "", fmt.Errorf("events %s: %w", id, err)
	}
	// Drain the rest so the connection goes back to the pool.
	_, _ = io.Copy(io.Discard, resp.Body)
	return state, nil
}

// errStreamEnded reports an event stream that closed before a terminal
// state.
var errStreamEnded = errors.New("event stream ended before a terminal state")

// readUntilTerminal reads NDJSON events until one carries a terminal state.
func readUntilTerminal(r io.Reader) (string, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			return "", fmt.Errorf("bad event line %q: %w", line, err)
		}
		switch ev.State {
		case "done", "failed", "canceled":
			return ev.State, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", errStreamEnded
}
