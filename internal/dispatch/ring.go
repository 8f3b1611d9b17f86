// Package dispatch is the fleet front-end behind `eblowd -dispatch`: one
// process that owns the public HTTP API and shards submitted jobs across N
// backend solver nodes. Routing is consistent hashing on a coarse instance
// shape key (routingKey), so every job of one shape lands on the same node.
// The key is kept byte-stable because the dispatcher WAL stores it: a
// restarted dispatcher routes its replayed table exactly like its
// predecessor.
//
// The dispatcher keeps its own write-ahead log of accepted submissions
// (wal.go): a job acknowledged with 202 is on the dispatcher's disk before
// the ack, independent of any backend. When a node dies — detected by the
// per-node health loop after a run of failed probes — the ring drops it and
// every job it had accepted but not finished is re-dispatched to the
// surviving peers from the logged spec. Re-solving is deterministic for a
// fixed seed, so a failed-over job produces a result digest bit-identical
// to an uninterrupted single-node run (the failover test and the chaos
// script both gate exactly that).
package dispatch

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// DefaultVNodes is the virtual-node count per backend used when a Ring is
// built with a non-positive one. More virtual nodes smooth the key
// distribution (share variance shrinks like 1/sqrt(vnodes)) at the cost of
// a longer sorted point list.
const DefaultVNodes = 128

// ringPoint is one virtual node on the hash circle.
type ringPoint struct {
	hash uint64
	node string
}

// Ring is a consistent-hash ring with virtual nodes. Adding a node moves
// keys only onto the new node; removing a node moves only the removed
// node's keys, each to some surviving node — no key ever migrates between
// two surviving nodes (the remap-minimality contract, property-tested in
// ring_test.go). The zero value is not usable; construct with NewRing.
//
// Ring is a plain data structure: deterministic (ties on the circle break
// by node name), no clock, no goroutines, not safe for concurrent use. The
// Dispatcher drives it under its own mutex.
type Ring struct {
	vnodes int
	nodes  map[string]bool
	points []ringPoint // sorted by (hash, node)
}

// NewRing returns an empty ring with the given virtual-node count per
// backend (<= 0 uses DefaultVNodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	return &Ring{vnodes: vnodes, nodes: make(map[string]bool)}
}

// ringHash is the ring's hash function: 64-bit FNV-1a strengthened by the
// murmur3 fmix64 finalizer. Raw FNV-1a clusters in the high bits on short
// sequential keys ("a#0".."a#127", "1D/r:small/..."), which skews ring
// shares by up to ~4x; the finalizer's avalanche restores an even spread.
// Both steps are fixed constants — stable across processes and platforms,
// so a restarted dispatcher routes exactly like its predecessor.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Add inserts the node's virtual points. Adding a present node is a no-op.
func (r *Ring) Add(node string) {
	if r.nodes[node] {
		return
	}
	r.nodes[node] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{hash: ringHash(node + "#" + strconv.Itoa(i)), node: node})
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].node < r.points[b].node
	})
}

// Remove deletes the node's virtual points. Removing an absent node is a
// no-op.
func (r *Ring) Remove(node string) {
	if !r.nodes[node] {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	for i := len(kept); i < len(r.points); i++ {
		r.points[i] = ringPoint{}
	}
	r.points = kept
}

// Has reports whether the node is on the ring.
func (r *Ring) Has(node string) bool { return r.nodes[node] }

// Len returns the number of (real, not virtual) nodes on the ring.
func (r *Ring) Len() int { return len(r.nodes) }

// Nodes returns the ring's nodes in sorted order.
func (r *Ring) Nodes() []string {
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Owner returns the node owning the key: the first virtual point at or
// clockwise after the key's hash. An empty ring owns nothing ("").
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}
