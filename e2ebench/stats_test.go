package main

import (
	"strings"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed, so percentile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{100, 0.90, 90, true}, // ranks 91..100 lie beyond
		{99, 0.90, 90, false}, // only 9 beyond
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
		{1000, 0.99, 990, true},
		{0, 0.50, 0, false},
	} {
		got, ok := percentile(seq(tc.n), tc.q)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
}

func TestParseProcStat(t *testing.T) {
	const before = "cpu  100 5 50 800 10 1 2 30 7 0\ncpu0 50 2 25 400 5 0 1 15 3 0\nintr 1 2 3\n"
	const after = "cpu  170 5 70 870 10 1 2 70 9 0\n"
	a, err := parseProcStat(strings.NewReader(before))
	if err != nil {
		t.Fatal(err)
	}
	if a.total != 998 || a.steal != 30 || a.idle != 810 {
		t.Fatalf("before = %+v, want total 998 steal 30 idle 810", a)
	}
	b, err := parseProcStat(strings.NewReader(after))
	if err != nil {
		t.Fatal(err)
	}
	// 200 more ticks in total, 40 of them stolen.
	if got := stealFrac(a, b); got != 0.2 {
		t.Fatalf("stealFrac = %v, want 0.2", got)
	}
	if got := unstolen(10*time.Second, a, b); got != 8*time.Second {
		t.Fatalf("unstolen(10s) = %v, want 8s", got)
	}
	if got := stealFrac(b, a); got != 0 {
		t.Fatalf("stealFrac of a backwards pair = %v, want 0", got)
	}
	for _, bad := range []string{"", "intr 1 2\n", "cpu 1 2 3\n", "cpu 1 2 3 4 5 6 7 x 9\n"} {
		if _, err := parseProcStat(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProcStat(%q) accepted a malformed file", bad)
		}
	}
}
