package batch

import (
	"slices"
	"sync"
)

// Item is one queued job as the scheduler sees it.
type Item struct {
	// ID is the job's service identifier, echoed back by Pop.
	ID string
	// Cost is the job's cost estimate (Estimate); lower pops first.
	Cost float64

	// seq is the submission sequence number, assigned by Push.
	seq int
	// overtakes counts how many later-submitted jobs have been popped past
	// this one; at the queue's aging bound the scheduler pins it to the
	// front.
	overtakes int
}

// Stats counts scheduler activity since the queue was created.
type Stats struct {
	// Pending is the current queue depth.
	Pending int
	// Overtakes counts job-over-job queue jumps (each popped job counts
	// once per earlier-submitted job left waiting).
	Overtakes int
	// AgedPops counts Pops whose job was forced by the aging bound rather
	// than chosen by cost.
	AgedPops int
}

// Queue is the cost-model scheduler: a pending set ordered by submission,
// popped by cost estimate under a hard aging bound. It is deterministic —
// no clock, no goroutines — and safe for concurrent use: every method
// takes the queue's own mutex, so readers that bypass the job service's
// lock (the GET /v1/stats snapshot under load) still see consistent
// counters.
type Queue struct {
	// maxJump is the aging bound: the maximum number of later-submitted
	// jobs that may be popped past a waiting job. 0 is strict FIFO order.
	maxJump int

	mu sync.Mutex
	// guarded by mu — pending jobs in submission (seq) order
	items []*Item
	// guarded by mu
	nextSeq int
	// guarded by mu
	stats Stats
}

// NewQueue returns an empty scheduler queue with the given aging bound
// (negative values mean 0, strict submission order).
func NewQueue(maxJump int) *Queue { return &Queue{maxJump: max(maxJump, 0)} }

// Push appends a job to the pending set.
func (q *Queue) Push(it Item) {
	q.mu.Lock()
	defer q.mu.Unlock()
	it.seq = q.nextSeq
	q.nextSeq++
	q.items = append(q.items, &it)
}

// Remove deletes the job with the given id from the pending set (a cancel
// while queued). It reports whether the job was present.
func (q *Queue) Remove(id string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i, it := range q.items {
		if it.ID == id {
			q.items = append(q.items[:i], q.items[i+1:]...)
			return true
		}
	}
	return false
}

// Stats returns the activity counters with Pending filled in. The snapshot
// is internally consistent even against a concurrent Push or Pop.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	s := q.stats
	s.Pending = len(q.items)
	return s
}

// Pop removes and returns the next job: the cheapest pending job by cost
// estimate (ties to the earliest submitted), unless some job has already
// been overtaken maxJump times, in which case the earliest such job pops
// regardless of cost (the aging bound). It reports false on an empty
// queue.
//
// The invariant Pop maintains: no job is ever overtaken by more than
// maxJump later-submitted jobs. A cost-chosen job cannot violate it,
// because any job at the bound would have been pinned first.
func (q *Queue) Pop() (Item, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.items) == 0 {
		return Item{}, false
	}
	head, aged := -1, false
	for idx, it := range q.items {
		if it.overtakes >= q.maxJump {
			head, aged = idx, true
			break
		}
	}
	if head < 0 {
		head = 0
		for idx, it := range q.items {
			if it.Cost < q.items[head].Cost {
				head = idx
			}
		}
	}
	// items is in submission order, so exactly the jobs before head are
	// overtaken by it.
	for _, it := range q.items[:head] {
		it.overtakes++
	}
	q.stats.Overtakes += head
	if aged {
		q.stats.AgedPops++
	}
	it := *q.items[head]
	q.items = slices.Delete(q.items, head, head+1)
	return it, true
}
