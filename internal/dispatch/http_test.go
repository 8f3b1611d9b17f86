package dispatch

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"eblow/internal/service"
)

// wireCall sends one request and returns the status code and the JSON
// object in the reply.
func wireCall(t *testing.T, method, url, body string) (int, map[string]any) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("%s %s: HTTP %d with an undecodable body: %v", method, url, resp.StatusCode, err)
	}
	return resp.StatusCode, doc
}

// docKeys returns the document's keys, sorted, leaving out skip.
func docKeys(doc map[string]any, skip string) string {
	keys := make([]string, 0, len(doc))
	for k := range doc {
		if k != skip {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}

// waitRunning follows the node's event stream for a job until it reports
// the running state.
func waitRunning(t *testing.T, base, id string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
		var e struct{ State string }
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if e.State == "running" {
			return
		}
	}
	t.Fatalf("job %s never started running", id)
}

// TestNodeFleetAPIParity sends the same requests to a node and to a
// dispatcher in front of that node: both must answer with the same status
// code and the same JSON keys, the fleet adding only "node".
func TestNodeFleetAPIParity(t *testing.T) {
	nodes, cfgs := newFleet(t, 1, 1)
	d, err := New(Config{Nodes: cfgs, HealthInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	fleet := httptest.NewServer(NewHandler(d))
	defer fleet.Close()
	node := nodes[0].srv.URL

	// A long exact solve, submitted through the fleet, holds the node's one
	// worker so its result is not ready while the rows below run.
	long := `{"benchmark":"1T-5","solver":"exact","label":"long","params":{"deadline":"5m"}}`
	code, doc := wireCall(t, http.MethodPost, fleet.URL+"/v1/jobs", long)
	if code != http.StatusAccepted {
		t.Fatalf("long job: HTTP %d: %v", code, doc)
	}
	publicID, backendID := doc["id"].(string), ""
	for _, s := range nodes[0].m.List() {
		if s.Label == "long" {
			backendID = s.ID
		}
	}
	if backendID == "" {
		t.Fatal("the fleet did not hand the long job to its node")
	}
	waitRunning(t, node, backendID)

	tooLarge := `{"benchmark":"1T-1","label":"` + strings.Repeat("x", 33<<20) + `"}`
	rows := []struct {
		name         string
		method, path string
		fleetPath    string // when the fleet names the job differently
		body         string
		want         int
	}{
		{"submit", "POST", "/v1/jobs", "", `{"benchmark":"1T-1","solver":"greedy","params":{"seed":1}}`, http.StatusAccepted},
		{"malformed body", "POST", "/v1/jobs", "", `{"benchmark":`, http.StatusBadRequest},
		{"unknown solver", "POST", "/v1/jobs", "", `{"benchmark":"1T-1","solver":"nosuch"}`, http.StatusBadRequest},
		{"kind mismatch", "POST", "/v1/jobs", "", `{"benchmark":"1T-1","solver":"sa24"}`, http.StatusBadRequest},
		{"unknown status", "GET", "/v1/jobs/nope", "", "", http.StatusNotFound},
		{"unknown result", "GET", "/v1/jobs/nope/result", "", "", http.StatusNotFound},
		{"unknown cancel", "DELETE", "/v1/jobs/nope", "", "", http.StatusNotFound},
		{"unknown events", "GET", "/v1/jobs/nope/events", "", "", http.StatusNotFound},
		{"result not ready", "GET", "/v1/jobs/" + backendID + "/result", "/v1/jobs/" + publicID + "/result", "", http.StatusConflict},
		{"body too large", "POST", "/v1/jobs", "", tooLarge, http.StatusRequestEntityTooLarge},
		{"unknown route", "GET", "/nope", "", "", http.StatusNotFound},
		{"removed route", "GET", "/v1/learn", "", "", http.StatusNotFound},
		{"wrong method", "PUT", "/v1/jobs", "", "", http.StatusMethodNotAllowed},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			fleetPath := row.fleetPath
			if fleetPath == "" {
				fleetPath = row.path
			}
			nodeCode, nodeDoc := wireCall(t, row.method, node+row.path, row.body)
			fleetCode, fleetDoc := wireCall(t, row.method, fleet.URL+fleetPath, row.body)
			if nodeCode != row.want || fleetCode != row.want {
				t.Errorf("node HTTP %d, fleet HTTP %d, want %d", nodeCode, fleetCode, row.want)
			}
			if nk, fk := docKeys(nodeDoc, ""), docKeys(fleetDoc, "node"); nk != fk {
				t.Errorf("node keys [%s], fleet keys [%s] (the fleet may add only \"node\")", nk, docKeys(fleetDoc, ""))
			}
		})
	}
}

// TestRepliesAreCompact sends every JSON route to a node
// (service.NewHandler over a Manager) and to a dispatcher (NewHandler) in
// front of it. Each reply must be one line, and it must decode to the
// document the API returns, encoded with indentation as replies once were.
func TestRepliesAreCompact(t *testing.T) {
	nodes, cfgs := newFleet(t, 1, 1)
	d, err := New(Config{Nodes: cfgs, HealthInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	fleet := httptest.NewServer(NewHandler(d))
	defer fleet.Close()
	ctx := context.Background()

	targets := []struct {
		name string
		base string
		api  service.API
		wait func(t *testing.T, id string)
	}{
		{"node", nodes[0].srv.URL, nodes[0].m, func(t *testing.T, id string) { waitManagerTerminal(t, nodes[0].m, id, time.Minute) }},
		{"fleet", fleet.URL, d, func(t *testing.T, id string) { waitDispatchTerminal(t, d, id, time.Minute) }},
	}
	for _, tg := range targets {
		t.Run(tg.name, func(t *testing.T) {
			submit := `{"benchmark":"1T-1","solver":"greedy","params":{"seed":1}}`
			reply := compactReply(t, http.MethodPost, tg.base+"/v1/jobs", submit, http.StatusAccepted)
			var doc struct{ ID string }
			if err := json.Unmarshal(reply, &doc); err != nil || doc.ID == "" {
				t.Fatalf("submit reply %s: no job ID (%v)", reply, err)
			}
			id := doc.ID
			tg.wait(t, id)

			errDoc := func(_ any, err error) (any, error) { return map[string]string{"error": err.Error()}, nil }
			rows := []struct {
				name, method, path, body string
				code                     int
				doc                      func() (any, error)
			}{
				{"status", "GET", "/v1/jobs/" + id, "", http.StatusOK, func() (any, error) { return tg.api.WireStatus(ctx, id) }},
				{"result", "GET", "/v1/jobs/" + id + "/result", "", http.StatusOK, func() (any, error) { return tg.api.WireResult(ctx, id) }},
				{"list", "GET", "/v1/jobs", "", http.StatusOK, func() (any, error) { return tg.api.WireList(ctx), nil }},
				{"stats", "GET", "/v1/stats", "", http.StatusOK, func() (any, error) { return tg.api.WireStats(ctx), nil }},
				{"cancel", "DELETE", "/v1/jobs/" + id, "", http.StatusOK, func() (any, error) { return tg.api.WireCancel(ctx, id) }},
				{"unknown job", "GET", "/v1/jobs/nope", "", http.StatusNotFound, func() (any, error) { return errDoc(tg.api.WireStatus(ctx, "nope")) }},
				{"malformed submit", "POST", "/v1/jobs", `{"benchmark":`, http.StatusBadRequest, func() (any, error) { return errDoc(tg.api.WireSubmit(ctx, []byte(`{"benchmark":`))) }},
				{"solvers", "GET", "/v1/solvers", "", http.StatusOK, nil},
			}
			for _, row := range rows {
				reply := compactReply(t, row.method, tg.base+row.path, row.body, row.code)
				if row.doc == nil {
					continue
				}
				want, err := row.doc()
				if err != nil {
					t.Fatalf("%s: %v", row.name, err)
				}
				var indented bytes.Buffer
				enc := json.NewEncoder(&indented)
				enc.SetIndent("", "  ")
				if err := enc.Encode(want); err != nil {
					t.Fatal(err)
				}
				if got, want := decodeAny(t, reply), decodeAny(t, indented.Bytes()); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: reply %v, indented document %v", row.name, got, want)
				}
			}
		})
	}
}

// compactReply sends one request, checks the status code, and checks that
// the reply is one line of JSON.
func compactReply(t *testing.T, method, url, body string, want int) []byte {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != want {
		t.Fatalf("%s %s: HTTP %d, want %d: %s", method, url, resp.StatusCode, want, reply)
	}
	if bytes.IndexByte(reply, '\n') != len(reply)-1 || !json.Valid(reply) {
		t.Fatalf("%s %s: reply is not one line of JSON: %q", method, url, reply)
	}
	return reply
}

func decodeAny(t *testing.T, b []byte) any {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}
