package dispatch

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"
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
