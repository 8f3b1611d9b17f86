package main

import (
	"testing"
	"time"
)

func TestSelfTimesOfNestedSpans(t *testing.T) {
	at := func(ms int64) int64 { return ms * int64(time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "job", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "http.submit", Start: at(0), End: at(10)},
		{ID: 3, Parent: 1, Name: "events.wait", Start: at(20), End: at(90)},
		// starts inside the submit, so only the part under the wait counts
		{ID: 4, Parent: 3, Name: "server.queue", Start: at(5), End: at(30)},
		{ID: 5, Parent: 3, Name: "server.solve", Start: at(30), End: at(80)},
		{ID: 6, Parent: 1, Name: "http.result", Start: at(90), End: at(95)},
		// a separate tree
		{ID: 7, Name: "solver.Solve", Start: at(200), End: at(230)},
	}
	self, err := selfTimes(spans)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]time.Duration{
		1: 15 * time.Millisecond, // 10..20 and 95..100
		2: 10 * time.Millisecond,
		3: 10 * time.Millisecond, // 80..90
		4: 10 * time.Millisecond, // 20..30
		5: 50 * time.Millisecond,
		6: 5 * time.Millisecond,
		7: 30 * time.Millisecond,
	}
	var tree time.Duration
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self(%d) = %v, want %v", id, self[id], w)
		}
		if id <= 6 {
			tree += self[id]
		}
	}
	if tree != 100*time.Millisecond {
		t.Errorf("self times of the job tree add up to %v, want its 100ms", tree)
	}
}

func TestSelfTimesRejectsBrokenTrees(t *testing.T) {
	for name, spans := range map[string][]span{
		"unknown parent": {{ID: 1, Parent: 9, Start: 0, End: 1}},
		"reversed":       {{ID: 1, Start: 5, End: 1}},
		"cycle":          {{ID: 1, Parent: 2, Start: 0, End: 1}, {ID: 2, Parent: 1, Start: 0, End: 1}},
	} {
		if _, err := selfTimes(spans); err == nil {
			t.Errorf("%s: selfTimes accepted it", name)
		}
	}
}
