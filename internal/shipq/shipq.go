// Package shipq provides the per-origin coalescing ship queue shared by the
// simulation engine (internal/core) and the TCP prototype (internal/proto).
// A create or rebuild that pushes a home MDS past the XOR-delta threshold
// does not ship the filter inline; instead the origin is marked dirty here.
// The queue drains — handing each dirty origin back exactly once, in
// ascending ID order — when the number of threshold crossings since the last
// drain reaches the configured batch, or when the owner explicitly drains.
// Repeated crossings by the same origin between drains coalesce into one
// pending entry, which is what amortizes the paper's stale-replica-per-group
// update across a burst of creates.
//
// With batch ≤ 1 every crossing drains immediately, reproducing the paper's
// ship-at-threshold protocol bit for bit on the serial path.
package shipq

import (
	"sort"
	"sync"
)

// Queue is a concurrency-safe coalescing ship queue.
type Queue struct {
	mu        sync.Mutex
	pending   map[int]struct{}
	crossings int
	batch     int
}

// New builds a queue draining every batch threshold crossings (minimum 1).
func New(batch int) *Queue {
	if batch < 1 {
		batch = 1
	}
	return &Queue{pending: make(map[int]struct{}), batch: batch}
}

// Note records a threshold crossing for origin. When the crossing count
// reaches the batch size it returns the sorted set of dirty origins to ship
// (clearing the queue); otherwise it returns nil.
func (q *Queue) Note(origin int) []int {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.pending[origin] = struct{}{}
	q.crossings++
	if q.crossings < q.batch {
		return nil
	}
	return q.takeLocked()
}

// Drain returns every dirty origin in ascending order, clearing the queue.
func (q *Queue) Drain() []int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.takeLocked()
}

// takeLocked empties the pending set. Requires q.mu.
func (q *Queue) takeLocked() []int {
	q.crossings = 0
	if len(q.pending) == 0 {
		return nil
	}
	out := make([]int, 0, len(q.pending))
	for origin := range q.pending {
		out = append(out, origin)
	}
	clear(q.pending)
	sort.Ints(out)
	return out
}

// Forget drops origin from the pending set: the origin was just shipped
// directly or has left the system.
func (q *Queue) Forget(origin int) {
	q.mu.Lock()
	delete(q.pending, origin)
	q.mu.Unlock()
}
