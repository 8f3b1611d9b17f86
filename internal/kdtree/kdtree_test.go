package kdtree

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyTree(t *testing.T) {
	tr := Build(2, nil, nil)
	if tr.Len() != 0 {
		t.Error("unexpected empty tree state")
	}
	if got := tr.Range(Point{0, 0}, Point{10, 10}); len(got) != 0 {
		t.Errorf("Range on empty tree = %v", got)
	}
	if tr.Delete(3) {
		t.Error("Delete on empty tree should return false")
	}
}

func TestInsertRangeDelete(t *testing.T) {
	tr := Build(2, []Point{{1, 1}, {2, 5}, {5, 2}, {8, 8}, {3, 3}}, []int{0, 1, 2, 3, 4})
	if tr.Len() != 5 {
		t.Fatalf("Len = %d, want 5", tr.Len())
	}
	got := tr.Range(Point{0, 0}, Point{4, 4})
	sort.Ints(got)
	want := []int{0, 4}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("Range = %v, want %v", got, want)
	}
	if !tr.Delete(0) {
		t.Error("Delete(0) should succeed")
	}
	if tr.Delete(0) {
		t.Error("second Delete(0) should fail")
	}
	got = tr.Range(Point{0, 0}, Point{4, 4})
	if len(got) != 1 || got[0] != 4 {
		t.Errorf("Range after delete = %v, want [4]", got)
	}
	if tr.Len() != 4 {
		t.Errorf("Len after delete = %d, want 4", tr.Len())
	}
}

func TestBuildBalanced(t *testing.T) {
	var pts []Point
	var ids []int
	for i := 0; i < 100; i++ {
		pts = append(pts, Point{float64(i), float64(100 - i)})
		ids = append(ids, i)
	}
	tr := Build(2, pts, ids)
	if tr.Len() != 100 {
		t.Fatalf("Len = %d", tr.Len())
	}
	got := tr.Range(Point{10, 0}, Point{20, 200})
	if len(got) != 11 {
		t.Errorf("Range size = %d, want 11", len(got))
	}
}

func TestCompaction(t *testing.T) {
	var pts []Point
	var ids []int
	for i := 0; i < 64; i++ {
		pts = append(pts, Point{float64(i), float64(i % 7), float64(i % 3)})
		ids = append(ids, i)
	}
	tr := Build(3, pts, ids)
	for i := 0; i < 40; i++ {
		tr.Delete(i)
	}
	if tr.Rebuilds() == 0 {
		t.Error("expected at least one compaction after heavy deletion")
	}
	if tr.Len() != 24 {
		t.Errorf("Len = %d, want 24", tr.Len())
	}
	got := tr.Range(Point{0, 0, 0}, Point{100, 100, 100})
	if len(got) != 24 {
		t.Errorf("Range after compaction = %d ids, want 24", len(got))
	}
	if tr.Delete(5) {
		t.Error("Delete of a compacted-away id should return false")
	}
}

func TestPanics(t *testing.T) {
	assertPanics := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	assertPanics("zero dimension", func() { Build(0, nil, nil) })
	assertPanics("dim mismatch build", func() { Build(2, []Point{{1}}, []int{0}) })
	assertPanics("dim mismatch range", func() { Build(2, nil, nil).Range(Point{1}, Point{1, 2}) })
	assertPanics("duplicate id", func() { Build(1, []Point{{1}, {2}}, []int{7, 7}) })
	assertPanics("build length mismatch", func() { Build(1, []Point{{1}}, nil) })
}

// linearRange is the reference implementation for the property tests.
func linearRange(pts map[int]Point, lo, hi Point) []int {
	var out []int
	for id, p := range pts {
		ok := true
		for d := range p {
			if p[d] < lo[d] || p[d] > hi[d] {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

// Property: range queries on the tree match a linear scan on a built tree
// under random deletions, through the compactions they trigger.
func TestRangeMatchesLinearScan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(4)
		n := rng.Intn(60)
		pts := make([]Point, n)
		ids := make([]int, n)
		live := make(map[int]Point)
		for i := range pts {
			p := make(Point, k)
			for d := range p {
				p[d] = float64(rng.Intn(20))
			}
			pts[i], ids[i] = p, 3*i+1
			live[ids[i]] = p
		}
		tr := Build(k, pts, ids)
		for round := 0; round < 4; round++ {
			// delete a random share of the live ids
			for _, id := range ids {
				if _, ok := live[id]; !ok || rng.Float64() < 0.7 {
					continue
				}
				if !tr.Delete(id) {
					return false
				}
				delete(live, id)
			}
			if tr.Len() != len(live) {
				return false
			}
			if !rangesMatch(rng, tr, live, k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// rangesMatch runs ten random range queries against the tree and the linear
// scan over live.
func rangesMatch(rng *rand.Rand, tr *Tree, live map[int]Point, k int) bool {
	for q := 0; q < 10; q++ {
		lo := make(Point, k)
		hi := make(Point, k)
		for d := range lo {
			a := float64(rng.Intn(20))
			b := float64(rng.Intn(20))
			lo[d], hi[d] = math.Min(a, b), math.Max(a, b)
		}
		got := tr.Range(lo, hi)
		sort.Ints(got)
		want := linearRange(live, lo, hi)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
	}
	return true
}

func BenchmarkRangeQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 4000
	pts := make([]Point, n)
	ids := make([]int, n)
	for i := range pts {
		pts[i] = Point{rng.Float64() * 1000, rng.Float64() * 1000, rng.Float64() * 100, rng.Float64() * 100}
		ids[i] = i
	}
	tr := Build(4, pts, ids)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := pts[i%n]
		lo := Point{c[0] - 50, c[1] - 50, c[2] - 10, c[3] - 10}
		hi := Point{c[0] + 50, c[1] + 50, c[2] + 10, c[3] + 10}
		tr.Range(lo, hi)
	}
}

// TestStrictOrder checks that compareOnAxis, the order buildRec sorts each
// level by, is a strict total order on tie-heavy coordinates, NaN
// included: it is 0 only for a node against itself, antisymmetric, and
// transitive on sampled triples. So the tree, and the order Range reports
// ids in, depends on the points alone: trees built from two shuffles of
// the same points report the same ids in the same order.
func TestStrictOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	coords := []float64{0, 1, 2, math.NaN()}
	for trial := 0; trial < 30; trial++ {
		nodes := make([]*node, 40)
		for i := range nodes {
			nodes[i] = &node{point: Point{coords[rng.Intn(len(coords))], coords[rng.Intn(len(coords))]}, id: i}
		}
		for axis := range 2 {
			sign := func(a, b *node) int { return max(-1, min(1, compareOnAxis(axis, a, b))) }
			for _, a := range nodes {
				for _, b := range nodes {
					if c := sign(a, b); (c == 0) != (a == b) || sign(b, a) != -c {
						t.Fatalf("axis %d: cmp(%v, %v) = %d, cmp(%v, %v) = %d", axis, a, b, c, b, a, sign(b, a))
					}
				}
			}
			for range 20 * len(nodes) {
				a, b, c := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
				if sign(a, b) <= 0 && sign(b, c) <= 0 && sign(a, c) > 0 {
					t.Fatalf("axis %d: not transitive on %v ≤ %v ≤ %v", axis, a, b, c)
				}
			}
		}

		points := make([]Point, 60)
		ids := rng.Perm(len(points))
		for i := range points {
			points[i] = Point{float64(rng.Intn(3)), float64(rng.Intn(3))}
		}
		lo, hi := Point{0, 0}, Point{2, 2}
		want := Build(2, points, ids).Range(lo, hi)
		rng.Shuffle(len(points), func(i, j int) {
			points[i], points[j] = points[j], points[i]
			ids[i], ids[j] = ids[j], ids[i]
		})
		if got := Build(2, points, ids).Range(lo, hi); !slices.Equal(got, want) {
			t.Fatalf("trial %d: a shuffled build reports %v, want %v", trial, got, want)
		}
	}
}
