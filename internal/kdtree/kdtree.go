// Package kdtree implements a k-d tree over points with integer payload
// identifiers. The 2D planner of E-BLOW uses it to find "similar" character
// candidates during clustering (Algorithm 4 in the paper): each candidate is
// embedded as a feature vector (width, height, blanks, profit) and clustering
// repeatedly performs orthogonal range queries around the current candidate.
//
// Deletion is implemented lazily with tombstones; the tree rebuilds itself
// when more than half of its nodes are tombstones, which keeps both queries
// and amortised deletions cheap for the clustering workload (every candidate
// is deleted at most once).
package kdtree

import (
	"cmp"
	"fmt"
	"slices"
)

// Point is a k-dimensional coordinate vector.
type Point []float64

type node struct {
	point   Point
	id      int
	axis    int
	deleted bool
	left    *node
	right   *node
}

// Tree is a k-d tree. The zero value is not usable; create trees with Build.
type Tree struct {
	k        int
	root     *node
	size     int // live (non-deleted) points
	total    int // live + tombstones
	byID     map[int]*node
	rebuilds int
}

// Build creates a balanced tree from parallel slices of k-dimensional points
// and their ids. Ids identify character candidates and must be unique.
func Build(k int, points []Point, ids []int) *Tree {
	if k <= 0 {
		panic("kdtree: dimension must be positive")
	}
	if len(points) != len(ids) {
		panic("kdtree: points and ids length mismatch")
	}
	t := &Tree{k: k, byID: make(map[int]*node)}
	nodes := make([]*node, len(points))
	for i := range points {
		t.checkDim(points[i])
		if _, dup := t.byID[ids[i]]; dup {
			panic(fmt.Sprintf("kdtree: duplicate id %d", ids[i]))
		}
		nodes[i] = &node{point: points[i], id: ids[i]}
		t.byID[ids[i]] = nodes[i]
	}
	t.root = buildRec(nodes, 0, k)
	t.size = len(points)
	t.total = len(points)
	return t
}

func buildRec(nodes []*node, depth, k int) *node {
	if len(nodes) == 0 {
		return nil
	}
	axis := depth % k
	slices.SortFunc(nodes, func(a, b *node) int { return compareOnAxis(axis, a, b) })
	mid := len(nodes) / 2
	n := nodes[mid]
	n.axis = axis
	n.left = buildRec(append([]*node(nil), nodes[:mid]...), depth+1, k)
	n.right = buildRec(append([]*node(nil), nodes[mid+1:]...), depth+1, k)
	return n
}

// compareOnAxis orders nodes by their coordinate on axis, NaN first, then
// by id. Ids are unique, so the order is strict and the tree's shape, and
// with it the order Range reports ids in, does not depend on how a sort
// places equal coordinates.
func compareOnAxis(axis int, a, b *node) int {
	return cmp.Or(cmp.Compare(a.point[axis], b.point[axis]), cmp.Compare(a.id, b.id))
}

func (t *Tree) checkDim(p Point) {
	if len(p) != t.k {
		panic(fmt.Sprintf("kdtree: point has %d dimensions, tree has %d", len(p), t.k))
	}
}

// Len returns the number of live points.
func (t *Tree) Len() int { return t.size }

// Rebuilds returns how many times the tree compacted itself; exposed for
// tests and instrumentation.
func (t *Tree) Rebuilds() int { return t.rebuilds }

// Delete removes the point with the given id. It reports whether the id was
// present and live.
func (t *Tree) Delete(id int) bool {
	n, ok := t.byID[id]
	if !ok || n.deleted {
		return false
	}
	n.deleted = true
	delete(t.byID, id)
	t.size--
	if t.total > 8 && t.size < t.total/2 {
		t.compact()
	}
	return true
}

// compact rebuilds the tree from the live points only.
func (t *Tree) compact() {
	points := make([]Point, 0, t.size)
	ids := make([]int, 0, t.size)
	var collect func(n *node)
	collect = func(n *node) {
		if n == nil {
			return
		}
		if !n.deleted {
			points = append(points, n.point)
			ids = append(ids, n.id)
		}
		collect(n.left)
		collect(n.right)
	}
	collect(t.root)
	nodes := make([]*node, len(points))
	t.byID = make(map[int]*node, len(points))
	for i := range points {
		nodes[i] = &node{point: points[i], id: ids[i]}
		t.byID[ids[i]] = nodes[i]
	}
	t.root = buildRec(nodes, 0, t.k)
	t.size = len(points)
	t.total = len(points)
	t.rebuilds++
}

// Range returns the ids of all live points p with lo[d] <= p[d] <= hi[d] for
// every dimension d.
func (t *Tree) Range(lo, hi Point) []int {
	t.checkDim(lo)
	t.checkDim(hi)
	var out []int
	var visit func(n *node)
	visit = func(n *node) {
		if n == nil {
			return
		}
		axis := n.axis
		if !n.deleted {
			inside := true
			for d := 0; d < t.k; d++ {
				if n.point[d] < lo[d] || n.point[d] > hi[d] {
					inside = false
					break
				}
			}
			if inside {
				out = append(out, n.id)
			}
		}
		if n.left != nil && n.point[axis] >= lo[axis] {
			visit(n.left)
		}
		if n.right != nil && n.point[axis] <= hi[axis] {
			visit(n.right)
		}
	}
	visit(t.root)
	return out
}
