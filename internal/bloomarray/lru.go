package bloomarray

import (
	"fmt"
	"maps"
	"math/bits"
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
// All generations share one geometry and there are at most two per MDS, so
// they are stored bit-sliced (transposed) in one slab instead of as separate
// filters: each entry owns a lane j, and word p·W+g of the slab holds probe
// position p of the entries in lanes 32g…32g+31 — the active generation of
// lane j at bit j mod 32, its aged generation at bit 32 + j mod 32
// (W = ⌈lanes/32⌉). A query ANDs the k words at the digest's probe positions,
// which tests the key against every generation of 32 entries at once, folds
// the two halves together and reads the hits off the surviving bits: k loads
// per 32 entries where separate filters cost up to 2k loads per entry. The
// probe positions and the per-generation insertion counts are those of a
// bloom.Filter of the same capacity, so the array answers exactly as
// separate filters would.
//
// Concurrency follows the epoch-snapshot idiom of the rest of the read
// path. What is published through the atomic pointer is an lruState. Its
// lane assignment (ids, lanes) is immutable. Its slab and per-lane
// generation words are written in place, through sync/atomic only, by
// writers serialized on mu — and only monotonically: inserting a key ORs
// one bit into k words and bumps the lane's insertion count. Everything that
// would clear or move bits builds a private copy of the slab and publishes a
// successor state instead: a rotation (the lane's active column moves to the
// aged one), Forget (the lane's columns are cleared and the lane freed),
// and lane-word growth (a 33rd, 65th… home). A new home that finds a
// free lane publishes a successor that shares the slab. Queries and the
// Observe fast path load the state and read words atomically — no lock,
// ever. A reader therefore sees every rotation whole or not at all; one
// racing an insert may miss that key until the insert completes, which is an
// L1 miss that falls through to L2 — the transient the paper's asynchronous
// replica propagation already tolerates. A reader still holding a
// predecessor state answers from the lane assignment it loaded: it skips
// lanes claimed since, and never attributes a reused lane's bits to the
// departed MDS, because giving up a lane always comes with a fresh slab.
type LRUArray struct {
	mu       sync.Mutex // serializes writers; readers never take it
	capacity uint64     // insertions per generation, per MDS
	m        uint64     // probe positions (bits) per generation
	k        uint32     // probes per key
	layout   bloom.Layout
	state    atomic.Pointer[lruState]
}

// laneBits is the number of entries one slab word serves: lane j keeps its
// active generation at bit j mod 32 and its aged one laneBits above.
const laneBits = 32

// freeLane marks an unassigned lane in lruState.ids.
const freeLane = -1

// A lane's generation word is its active generation's insertion count
// shifted left by one, with genAged in the low bit.
const genAged = 1 // an aged generation exists (the lane has rotated)

// lruState is one published version of the array. w, ids and lanes are
// immutable after publication; words and gens are only ever ORed into or
// counted up in place (atomically, under LRUArray.mu). Successive states
// share any of the four they do not change. The zero state tracks nothing
// and owns no slab, so an array that never observes costs no memory.
type lruState struct {
	w     int             // lane words per probe position
	words []uint64        // the slab: m·w words, word p·w+g as described on LRUArray
	gens  []atomic.Uint64 // per lane: generation word
	ids   []int           // lane → MDS ID, or freeLane
	lanes map[int]int     // MDS ID → lane
}

// NewLRUArray creates an LRU array whose per-MDS generations hold capacity
// recent files at the given bits-per-item ratio, using the classic filter
// layout.
func NewLRUArray(capacity uint64, bitsPerItem float64) (*LRUArray, error) {
	return NewLRUArrayLayout(capacity, bitsPerItem, bloom.LayoutClassic)
}

// NewLRUArrayLayout is NewLRUArray with an explicit filter layout: the
// generations probe the positions a filter of that layout would.
func NewLRUArrayLayout(capacity uint64, bitsPerItem float64, layout bloom.Layout) (*LRUArray, error) {
	m, k, err := bloom.CapacityGeometry(capacity, bitsPerItem, layout)
	if err != nil {
		return nil, fmt.Errorf("bloomarray: LRU generation geometry: %w", err)
	}
	l := &LRUArray{capacity: capacity, m: m, k: k, layout: layout}
	l.state.Store(&lruState{})
	return l, nil
}

// activeBit returns the slab-word bit of a lane's active generation; the
// aged generation's is laneBits above it.
func activeBit(lane int) uint64 { return 1 << (lane % laneBits) }

// match ANDs the slab words of lane word g at the digest's probe positions:
// a set bit is a generation of one of the 32 lanes that contains the key.
// pos is d.Positions at the array's geometry — nil when k is beyond the
// digest's cache, and each position is derived on the spot.
func (l *LRUArray) match(s *lruState, d *bloom.Digest, pos []uint64, g int) uint64 {
	r := ^uint64(0)
	if pos == nil {
		for i := uint32(0); i < l.k && r != 0; i++ {
			r &= atomic.LoadUint64(&s.words[int(d.PositionAt(i, l.m, l.layout))*s.w+g])
		}
		return r
	}
	for _, p := range pos {
		if r &= atomic.LoadUint64(&s.words[int(p)*s.w+g]); r == 0 {
			break
		}
	}
	return r
}

// insertLocked sets bit (of lane word g) at the digest's probe positions in
// the published slab. Requires l.mu.
func (l *LRUArray) insertLocked(s *lruState, d *bloom.Digest, pos []uint64, g int, bit uint64) {
	if pos == nil {
		for i := uint32(0); i < l.k; i++ {
			atomic.OrUint64(&s.words[int(d.PositionAt(i, l.m, l.layout))*s.w+g], bit)
		}
		return
	}
	for _, p := range pos {
		atomic.OrUint64(&s.words[int(p)*s.w+g], bit)
	}
}

// withOwnSlab returns an unpublished successor of s that owns a private copy
// of the slab and generation words, w lane words per position (w no smaller
// than s.w; added lanes are empty), and still shares s's lane assignment.
// Requires LRUArray.mu, which keeps the source quiescent during the copy.
func (s *lruState) withOwnSlab(m uint64, w int) *lruState {
	next := &lruState{
		w:     w,
		gens:  make([]atomic.Uint64, laneBits*w),
		ids:   s.ids,
		lanes: s.lanes,
	}
	if w == s.w {
		next.words = slices.Clone(s.words)
	} else {
		next.words = make([]uint64, int(m)*w)
		for p := 0; p < int(m); p++ {
			copy(next.words[p*w:], s.words[p*s.w:(p+1)*s.w])
		}
	}
	for i := range s.gens {
		next.gens[i].Store(s.gens[i].Load())
	}
	return next
}

// claimLocked publishes a successor of s in which homeMDS owns a lane — a
// free one if there is one, else the first lane of an added lane word — and
// returns it with the lane. Requires l.mu.
func (l *LRUArray) claimLocked(s *lruState, homeMDS int) (*lruState, int) {
	next := &lruState{w: s.w, words: s.words, gens: s.gens}
	lane := slices.Index(s.ids, freeLane)
	if lane < 0 {
		lane = len(s.ids)
		next = s.withOwnSlab(l.m, s.w+1)
	}
	next.ids = slices.Clone(s.ids)
	for len(next.ids) < laneBits*next.w {
		next.ids = append(next.ids, freeLane)
	}
	next.ids[lane] = homeMDS
	next.lanes = make(map[int]int, len(s.lanes)+1)
	maps.Copy(next.lanes, s.lanes)
	next.lanes[homeMDS] = lane
	l.state.Store(next)
	return next, lane
}

// rotateLocked publishes a successor of s in which lane's full active
// generation has become its aged one (whose predecessor is discarded) and
// the active one is empty. The m words of the lane's column are rewritten in
// a private copy: clearing them in the published slab instead costs m/2
// locked read-modify-writes, an order of magnitude more than the copy, and
// would let a racing query see half a rotation. Requires l.mu.
func (l *LRUArray) rotateLocked(s *lruState, lane int) *lruState {
	next := s.withOwnSlab(l.m, s.w)
	active := activeBit(lane)
	for i := lane / laneBits; i < len(next.words); i += next.w {
		x := next.words[i]
		next.words[i] = x&^(active|active<<laneBits) | (x&active)<<laneBits
	}
	next.gens[lane].Store(genAged)
	l.state.Store(next)
	return next
}

// ObserveDigest records a pre-hashed confirmed (key → homeMDS) mapping,
// rotating that MDS's generations if the active one is full. The key is
// hashed exactly once: the lock-free fast path and the write-path
// insert both consume the caller's digest.
//
// The hot case — re-observing a key already in the current generation — is
// answered from the published state without any lock (k word loads, one
// lane bit tested), so parallel lookup workers hammering the same hot files
// do not serialize. Skipping the re-add leaves the bits unchanged but also
// leaves the generation's insertion counter where it was, so rotation is
// driven by (approximately) distinct recent files rather than raw
// observation count: a hot set smaller than capacity stays resident instead
// of being aged out by its own repetitions, which is the window the paper
// wants L1 to capture. Only new keys take the write lock; only a new home
// or a rotation allocates.
func (l *LRUArray) ObserveDigest(d *bloom.Digest, homeMDS int) {
	pos := d.Positions(l.m, l.k, l.layout)
	s := l.state.Load()
	if lane, ok := s.lanes[homeMDS]; ok &&
		s.gens[lane].Load()>>1 < l.capacity &&
		l.match(s, d, pos, lane/laneBits)&activeBit(lane) != 0 {
		return
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	s = l.state.Load()
	lane, ok := s.lanes[homeMDS]
	if !ok {
		s, lane = l.claimLocked(s, homeMDS)
	}
	if s.gens[lane].Load()>>1 >= l.capacity {
		s = l.rotateLocked(s, lane)
	}
	l.insertLocked(s, d, pos, lane/laneBits, activeBit(lane))
	s.gens[lane].Add(1 << 1)
}

// QueryDigest returns every MDS whose recent-file window may contain the
// pre-hashed key, with the same unique-hit contract as Array.QueryDigest:
// hits are appended into buf (which may be nil) in ascending MDS-ID order.
// Each lane word costs k word loads — usually fewer, since the AND runs dry
// early on a miss — whatever the number of entries it serves; with a reused
// buffer the query neither allocates nor locks.
func (l *LRUArray) QueryDigest(d *bloom.Digest, buf []int) Result {
	hits := buf[:0]
	s := l.state.Load()
	pos := d.Positions(l.m, l.k, l.layout)
	for g := 0; g < s.w; g++ {
		r := l.match(s, d, pos, g)
		// A hit in either generation is a hit for the lane.
		for r = uint64(uint32(r | r>>laneBits)); r != 0; r &= r - 1 {
			// Lanes are handed out in arrival order, so a second hit is
			// slotted in by ID. A lane this state does not assign carries
			// bits only when a successor sharing the slab has claimed it.
			if id := s.ids[g*laneBits+bits.TrailingZeros64(r)]; id != freeLane {
				hits = InsertSorted(hits, id)
			}
		}
	}
	return Result{Hits: hits}
}

// Forget drops the entry for an MDS, used when that MDS leaves the system so
// stale L1 hits cannot route requests to a dead server. Its lane is cleared
// in a private copy of the slab and becomes free for the next new home.
func (l *LRUArray) Forget(mdsID int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.state.Load()
	lane, ok := s.lanes[mdsID]
	if !ok {
		return
	}
	next := s.withOwnSlab(l.m, s.w)
	both := activeBit(lane) | activeBit(lane)<<laneBits
	for i := lane / laneBits; i < len(next.words); i += next.w {
		next.words[i] &^= both
	}
	next.gens[lane].Store(0)
	next.ids = slices.Clone(s.ids)
	next.ids[lane] = freeLane
	next.lanes = maps.Clone(s.lanes)
	delete(next.lanes, mdsID)
	l.state.Store(next)
}

// Entries returns the number of MDSs currently tracked.
func (l *LRUArray) Entries() int {
	return len(l.state.Load().lanes)
}

// SizeBytes returns the memory footprint of all live generations as the
// filters they stand for — (m/8 bytes) × (entries + entries that have
// rotated) — the unit core.Footprint and Table 5 account in. The slab that
// physically backs them is m × 8 B × ⌈lanes/32⌉, whatever the occupancy.
func (l *LRUArray) SizeBytes() uint64 {
	s := l.state.Load()
	generations := uint64(len(s.lanes))
	for _, lane := range s.lanes {
		generations += s.gens[lane].Load() & genAged
	}
	return generations * ((l.m + 63) / 64 * 8)
}
