// Package bloomarray builds the two array structures G-HBA layers on top of
// plain Bloom filters:
//
//   - Array: an ordered set of (MDS id, filter) entries queried with the
//     paper's unique-hit semantics — an answer counts only when exactly one
//     filter responds positively; zero or multiple hits escalate the lookup
//     to the next level of the hierarchy.
//   - LRUArray (lru.go): the L1 structure capturing temporal locality with
//     per-MDS aging filters, stored bit-sliced so one query tests them all.
//
// The paper's third array, the IDBFA that tells a member which groupmate
// stores which replica, has no counterpart here: both backends read that
// from their group.Layout.
package bloomarray

import (
	"sort"
	"sync"
	"sync/atomic"

	"ghba/internal/bloom"
)

// Result is the outcome of querying an array: the IDs of all filters that
// answered positively, in ascending order.
//
// Hits may alias a caller-provided scratch buffer (see QueryDigest); it is
// valid until that buffer's next reuse.
type Result struct {
	// Hits lists the MDS IDs whose filters responded positively.
	Hits []int
}

// Unique returns the single hit and true when exactly one filter responded,
// which is the only case the G-HBA query path treats as an answer. On a miss
// or a multi-hit it returns -1 — never a valid MDS ID — so a caller that
// drops the bool cannot silently route to MDS 0.
func (r Result) Unique() (int, bool) {
	if len(r.Hits) == 1 {
		return r.Hits[0], true
	}
	return -1, false
}

// InsertSorted inserts v into ascending xs unless present, preserving order
// and uniqueness — the shared primitive for folding an MDS ID into a sorted
// hit list (mds.QueryL2Digest's own-ID insert, core's L3 hit union) without
// re-sorting.
func InsertSorted(xs []int, v int) []int {
	for i, x := range xs {
		if x == v {
			return xs
		}
		if x > v {
			xs = append(xs, 0)
			copy(xs[i+1:], xs[i:])
			xs[i] = v
			return xs
		}
	}
	return append(xs, v)
}

// Miss reports whether no filter responded.
func (r Result) Miss() bool { return len(r.Hits) == 0 }

// Multiple reports whether more than one filter responded, which forces the
// same escalation as a miss (the array cannot disambiguate).
func (r Result) Multiple() bool { return len(r.Hits) > 1 }

// entry pairs a replica with the ID of the MDS whose file set it summarizes.
type entry struct {
	id int
	f  *bloom.Filter
}

// Array is a collection of Bloom-filter replicas keyed by the ID of the MDS
// whose file set each filter summarizes. It is the representation of the L2
// segment array and, in the HBA baseline, of the full global replica array.
//
// Storage is an immutable slice sorted by MDS ID, published through an
// atomic pointer (copy-on-write): queries load the current snapshot with no
// lock acquisition and scan it — a cache-friendly linear pass that yields
// hits already in ascending order (no per-query sort, no map iteration),
// which is what lets QueryDigest run allocation- and lock-free. Writers
// (replica refreshes from coalescing shippers, reconfiguration moves)
// serialize on an internal mutex, build a new slice, and swap it in; a
// reader that loaded the previous snapshot finishes against it, which is
// indistinguishable from the reader having run just before the write.
//
// Filters handed to Put are stored by reference and must not be mutated
// afterwards; refreshes replace the pointer wholesale. That immutability is
// what makes the published snapshot safe to probe without synchronization.
type Array struct {
	mu      sync.Mutex // serializes writers; readers never take it
	entries atomic.Pointer[[]entry]
}

// NewArray returns an empty array.
func NewArray() *Array {
	a := &Array{}
	a.entries.Store(&[]entry{})
	return a
}

// snapshot returns the current published entry slice. The slice is immutable;
// callers may scan it freely but must not modify it.
func (a *Array) snapshot() []entry {
	return *a.entries.Load()
}

// search returns the position of mdsID in the sorted entry slice and whether
// it is present.
func search(entries []entry, mdsID int) (int, bool) {
	i := sort.Search(len(entries), func(i int) bool {
		return entries[i].id >= mdsID
	})
	return i, i < len(entries) && entries[i].id == mdsID
}

// insertEntry returns a fresh sorted slice equal to entries with the replica
// for mdsID installed or replaced.
func insertEntry(entries []entry, mdsID int, f *bloom.Filter) []entry {
	i, ok := search(entries, mdsID)
	if ok {
		out := make([]entry, len(entries))
		copy(out, entries)
		out[i].f = f
		return out
	}
	out := make([]entry, 0, len(entries)+1)
	out = append(out, entries[:i]...)
	out = append(out, entry{id: mdsID, f: f})
	return append(out, entries[i:]...)
}

// Put installs or replaces the replica for the given MDS ID.
func (a *Array) Put(mdsID int, f *bloom.Filter) {
	a.mu.Lock()
	defer a.mu.Unlock()
	next := insertEntry(a.snapshot(), mdsID, f)
	a.entries.Store(&next)
}

// Get returns the replica for mdsID, or nil if absent.
func (a *Array) Get(mdsID int) *bloom.Filter {
	entries := a.snapshot()
	if i, ok := search(entries, mdsID); ok {
		return entries[i].f
	}
	return nil
}

// Remove deletes the replica for mdsID, returning it (nil if absent).
func (a *Array) Remove(mdsID int) *bloom.Filter {
	a.mu.Lock()
	defer a.mu.Unlock()
	entries := a.snapshot()
	i, ok := search(entries, mdsID)
	if !ok {
		return nil
	}
	f := entries[i].f
	next := make([]entry, 0, len(entries)-1)
	next = append(next, entries[:i]...)
	next = append(next, entries[i+1:]...)
	a.entries.Store(&next)
	return f
}

// Has reports whether the array holds a replica for mdsID.
func (a *Array) Has(mdsID int) bool {
	_, ok := search(a.snapshot(), mdsID)
	return ok
}

// Len returns the number of replicas held.
func (a *Array) Len() int {
	return len(a.snapshot())
}

// IDs returns the MDS IDs of all held replicas in ascending order.
func (a *Array) IDs() []int {
	entries := a.snapshot()
	ids := make([]int, len(entries))
	for i, e := range entries {
		ids[i] = e.id
	}
	return ids
}

// QueryDigest checks a pre-hashed key against every filter: one atomic
// snapshot load, then a scan over the sorted entries at k word loads per
// filter (one cache line per filter for blocked layouts), hits appended into
// buf (which may be nil). Hits come out in ascending ID order by
// construction. Passing a reused buffer makes the query allocation-free; no
// lock is taken at any point.
func (a *Array) QueryDigest(d *bloom.Digest, buf []int) Result {
	entries := a.snapshot()
	hits := buf[:0]
	for i := range entries {
		if entries[i].f.ContainsDigest(d) {
			hits = append(hits, entries[i].id)
		}
	}
	return Result{Hits: hits}
}

// SizeBytes returns the total in-memory footprint of all held replicas; the
// memory model charges this against the per-MDS RAM budget.
func (a *Array) SizeBytes() uint64 {
	var total uint64
	for _, e := range a.snapshot() {
		total += e.f.SizeBytes()
	}
	return total
}
