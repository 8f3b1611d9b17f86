package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call across a layer boundary. Spans of one job share
// Job; Parent is the ID of the span that caused this one (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Job    string `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start"` // Unix nanoseconds
	End    int64  `json:"end"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced runs use the same code paths. Only
// the client's reading goroutine records spans.
type tracer struct {
	spans []span
}

// add records a finished span and returns its ID.
func (t *tracer) add(job, name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: job, Name: name, Start: start.UnixNano(), End: end.UnixNano()})
	return id
}

// time runs fn inside a span.
func (t *tracer) time(job, name string, parent int, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(job, name, parent, start, end)
	return end.Sub(start)
}

// write stores the spans as NDJSON.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: the part of its interval,
// clipped to its parent's, that no child span covers. Children are clipped
// to their parent first, so a server-side span that starts inside a
// sibling's interval is only charged for the part under its own parent.
// The self times of one tree add up to its root's duration whenever
// siblings do not overlap.
func selfTimes(spans []span) (map[int]time.Duration, error) {
	byID := make(map[int]span, len(spans))
	children := make(map[int][]int)
	for _, s := range spans {
		if s.End < s.Start {
			return nil, fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent != 0 {
			if _, ok := byID[s.Parent]; !ok {
				return nil, fmt.Errorf("span %d (%s) has unknown parent %d", s.ID, s.Name, s.Parent)
			}
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	type iv struct{ a, b int64 }
	eff := make(map[int]iv, len(spans))
	var clip func(id int, depth int) (iv, error)
	clip = func(id int, depth int) (iv, error) {
		if v, ok := eff[id]; ok {
			return v, nil
		}
		if depth > len(spans) {
			return iv{}, fmt.Errorf("span %d is in a parent cycle", id)
		}
		s := byID[id]
		v := iv{s.Start, s.End}
		if s.Parent != 0 {
			p, err := clip(s.Parent, depth+1)
			if err != nil {
				return iv{}, err
			}
			v.a, v.b = max(v.a, p.a), min(v.b, p.b)
			if v.b < v.a {
				v.b = v.a
			}
		}
		eff[id] = v
		return v, nil
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		v, err := clip(s.ID, 0)
		if err != nil {
			return nil, err
		}
		var cs []iv
		for _, c := range children[s.ID] {
			cv, err := clip(c, 0)
			if err != nil {
				return nil, err
			}
			if cv.b > cv.a {
				cs = append(cs, cv)
			}
		}
		sort.Slice(cs, func(i, j int) bool { return cs[i].a < cs[j].a })
		var covered, end int64
		end = v.a
		for _, c := range cs {
			a := max(c.a, end)
			if c.b > a {
				covered += c.b - a
				end = c.b
			}
		}
		out[s.ID] = time.Duration(v.b - v.a - covered)
	}
	return out, nil
}
