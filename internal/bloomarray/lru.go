package bloomarray

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"ghba/internal/bloom"
)

// LRUArray is the L1 structure of G-HBA: one small Bloom filter per MDS
// recording the files recently confirmed to be homed at that MDS. Because a
// plain Bloom filter cannot evict, recency is approximated with the standard
// two-generation aging scheme: each entry keeps an active and an aged
// filter; inserts go to the active one, lookups consult both, and when the
// active filter has absorbed its capacity the generations rotate (the aged
// one is discarded). The effect is a sliding window covering between one and
// two capacities of the most recent insertions, which is exactly the "hot
// data" set the paper wants L1 to capture.
//
// Concurrency follows the epoch-snapshot idiom of the rest of the read
// path: the entry map is immutable and published through an atomic pointer.
// Queries (and the Observe fast path for already-recorded hot keys) load the
// snapshot and probe filters with atomic word reads — no lock, ever.
// Structural writes — a new MDS entry, a generation rotation, Forget, Reset
// — serialize on an internal mutex, copy the map, and swap in the new
// version; an agingFilter value is never modified after publication, only
// replaced. Non-structural inserts (AddDigest into a published active
// filter) also run under the mutex and are safe against concurrent readers
// because filter bit-sets synchronize word-wise.
type LRUArray struct {
	mu          sync.Mutex // serializes writers; readers never take it
	capacity    uint64     // insertions per generation, per MDS
	bitsPerItem float64    // filter ratio for each generation
	layout      bloom.Layout
	entries     atomic.Pointer[map[int]*agingFilter]
}

// agingFilter is a two-generation filter pair for one MDS. Published values
// are immutable: rotation and entry creation replace the whole struct.
type agingFilter struct {
	active *bloom.Filter
	aged   *bloom.Filter
}

// NewLRUArray creates an LRU array whose per-MDS generations hold capacity
// recent files at the given bits-per-item ratio, using the classic filter
// layout.
func NewLRUArray(capacity uint64, bitsPerItem float64) (*LRUArray, error) {
	return NewLRUArrayLayout(capacity, bitsPerItem, bloom.LayoutClassic)
}

// NewLRUArrayLayout is NewLRUArray with an explicit filter layout; blocked
// generations answer each probe from a single cache line.
func NewLRUArrayLayout(capacity uint64, bitsPerItem float64, layout bloom.Layout) (*LRUArray, error) {
	if capacity == 0 || bitsPerItem <= 0 {
		return nil, fmt.Errorf("%w: capacity=%d bits/item=%f",
			bloom.ErrInvalidGeometry, capacity, bitsPerItem)
	}
	l := &LRUArray{
		capacity:    capacity,
		bitsPerItem: bitsPerItem,
		layout:      layout,
	}
	l.entries.Store(&map[int]*agingFilter{})
	return l, nil
}

// snapshot returns the current published entry map. The map is immutable;
// callers may range over it freely but must not modify it.
func (l *LRUArray) snapshot() map[int]*agingFilter {
	return *l.entries.Load()
}

func (l *LRUArray) newGeneration() *bloom.Filter {
	f, err := bloom.NewForCapacityLayout(l.capacity, l.bitsPerItem, l.layout)
	if err != nil {
		// Geometry was validated in the constructor; reaching here means
		// internal corruption, not caller error.
		panic(fmt.Sprintf("bloomarray: invalid LRU generation geometry: %v", err))
	}
	return f
}

// publishLocked copies the current map, applies mutate to the copy, and
// swaps it in. Requires l.mu.
func (l *LRUArray) publishLocked(mutate func(map[int]*agingFilter)) {
	cur := l.snapshot()
	next := make(map[int]*agingFilter, len(cur)+1)
	for id, e := range cur {
		next[id] = e
	}
	mutate(next)
	l.entries.Store(&next)
}

// ObserveDigest records a pre-hashed confirmed (key → homeMDS) mapping,
// rotating that MDS's generations if the active filter is full. The key is
// hashed exactly once: the lock-free fast path and the write-path
// insert both consume the caller's digest.
//
// The hot case — re-observing a key already in the current generation — is
// answered from the published snapshot without any lock, so parallel lookup
// workers hammering the same hot files do not serialize. Skipping the re-add
// leaves the filter bits unchanged but also leaves the generation's
// insertion counter where it was, so rotation is driven by (approximately)
// distinct recent files rather than raw observation count: a hot set smaller
// than capacity stays resident instead of being aged out by its own
// repetitions, which is the window the paper wants L1 to capture. Only new
// keys (and rotations) take the write lock.
func (l *LRUArray) ObserveDigest(d *bloom.Digest, homeMDS int) {
	if e := l.snapshot()[homeMDS]; e != nil &&
		e.active.Count() < l.capacity && e.active.ContainsDigest(d) {
		return
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.snapshot()[homeMDS]
	switch {
	case e == nil:
		// First observation for this MDS: publish a fresh entry with the
		// key already inserted so no reader sees an empty active filter
		// that is about to change shape.
		fresh := &agingFilter{active: l.newGeneration()}
		fresh.active.AddDigest(d)
		l.publishLocked(func(m map[int]*agingFilter) { m[homeMDS] = fresh })
	case e.active.Count() >= l.capacity:
		// Rotate by replacement: the published agingFilter stays intact for
		// in-flight readers; the new version demotes the full generation.
		rotated := &agingFilter{active: l.newGeneration(), aged: e.active}
		rotated.active.AddDigest(d)
		l.publishLocked(func(m map[int]*agingFilter) { m[homeMDS] = rotated })
	default:
		// In-place insert into the published active generation: word-wise
		// atomic, safe against lock-free probes.
		e.active.AddDigest(d)
	}
}

// QueryDigest returns every MDS whose recent-file window may contain the
// pre-hashed key, with the same unique-hit contract as Array.QueryDigest: it
// checks every entry of the current snapshot, appending hits into buf (which
// may be nil). Both generations of
// an entry share the digest's cached probe positions, so each entry costs at
// most 2k word loads; with a reused buffer the query neither allocates nor
// locks.
//
//ghbavet:hotpath
func (l *LRUArray) QueryDigest(d *bloom.Digest, buf []int) Result {
	hits := buf[:0]
	for id, e := range l.snapshot() {
		if e.active.ContainsDigest(d) || (e.aged != nil && e.aged.ContainsDigest(d)) {
			hits = append(hits, id)
		}
	}
	slices.Sort(hits)
	return Result{Hits: hits}
}

// Forget drops the entry for an MDS, used when that MDS leaves the system so
// stale L1 hits cannot route requests to a dead server.
func (l *LRUArray) Forget(mdsID int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.publishLocked(func(m map[int]*agingFilter) { delete(m, mdsID) })
}

// Reset clears every entry.
func (l *LRUArray) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries.Store(&map[int]*agingFilter{})
}

// Entries returns the number of MDSs currently tracked.
func (l *LRUArray) Entries() int {
	return len(l.snapshot())
}

// SizeBytes returns the memory footprint of all generations.
func (l *LRUArray) SizeBytes() uint64 {
	var total uint64
	for _, e := range l.snapshot() {
		total += e.active.SizeBytes()
		if e.aged != nil {
			total += e.aged.SizeBytes()
		}
	}
	return total
}
