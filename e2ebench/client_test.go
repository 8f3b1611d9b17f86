package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestReadUntilTerminal(t *testing.T) {
	for _, tc := range []struct {
		stream string
		want   string
		err    error
	}{
		{`{"seq":1,"state":"queued"}` + "\n" + `{"seq":2,"state":"running"}` + "\n" + `{"seq":3,"state":"done"}` + "\n", "done", nil},
		{"\n" + `{"state":"failed","message":"boom"}`, "failed", nil},
		// a dispatcher's synthesized terminal event, then trailing lines
		{`{"job":"j1","state":"canceled","synthesized":true}` + "\n" + `{"state":"done"}` + "\n", "canceled", nil},
		{`{"state":"queued"}` + "\n" + `{"state":"running"}` + "\n", "", errStreamEnded},
	} {
		got, err := readUntilTerminal(strings.NewReader(tc.stream))
		if got != tc.want || !errors.Is(err, tc.err) {
			t.Errorf("readUntilTerminal(%q) = %q, %v; want %q, %v", tc.stream, got, err, tc.want, tc.err)
		}
	}
	if _, err := readUntilTerminal(strings.NewReader("{not json\n")); err == nil {
		t.Error("readUntilTerminal accepted a malformed line")
	}
}

// The waiter follows a live NDJSON stream to its terminal event, as the
// node's handler sends it: one flushed line per event, then the end.
func TestWaitFollowsEventStream(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/jobs/j7/events" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		for i, st := range []string{"queued", "running", "done"} {
			fmt.Fprintf(w, `{"seq":%d,"job":"j7","state":%q}`+"\n", i+1, st)
			w.(http.Flusher).Flush()
		}
	}))
	defer srv.Close()
	c := newClient()
	defer c.close()
	for i := 0; i < 3; i++ { // the drained connection is reused
		state, err := c.wait(context.Background(), srv.URL, "j7")
		if err != nil || state != "done" {
			t.Fatalf("wait = %q, %v; want done", state, err)
		}
	}
	if _, err := c.wait(context.Background(), srv.URL, "j8"); err == nil {
		t.Fatal("wait on an unknown job succeeded")
	}
}

func TestRetryableStatuses(t *testing.T) {
	for code, want := range map[int]bool{502: true, 409: true, 404: false, 500: false} {
		if got := retryable(&statusError{code: code}); got != want {
			t.Errorf("retryable(HTTP %d) = %v, want %v", code, got, want)
		}
	}
	if retryable(errors.New("connection refused")) {
		t.Error("a transport error is not a documented transient reply")
	}
}
