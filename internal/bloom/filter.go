// Package bloom implements the Bloom filter machinery that underpins G-HBA:
// standard bit-vector filters, the XOR delta of Section 3.4 of the paper,
// and the false-positive analysis of Equation 1.
//
// All filters in one deployment must be created with identical geometry
// (m bits, k hash functions, bit layout) so that their bit vectors are
// directly comparable and replicable across metadata servers; XorBits
// enforces this and fails loudly on mismatch.
//
// Two bit layouts are supported. LayoutClassic spreads the k probe positions
// across the whole vector — the textbook arrangement, and the wire/snapshot
// format every earlier release produced. LayoutBlocked partitions the vector
// into 512-bit (cache-line-sized) blocks: the first hash selects one block
// and all k probes stay inside it, so a membership query costs one cache
// line instead of k. The layout is part of a filter's geometry and of its
// wire encoding (a distinct magic number), so mixed deployments fail loudly
// rather than silently mis-probing each other's replicas.
package bloom

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
)

// Common errors returned by filter operations.
var (
	// ErrGeometryMismatch is returned when two filters with different bit
	// lengths, hash counts or layouts are compared.
	ErrGeometryMismatch = errors.New("bloom: filter geometry mismatch")
	// ErrInvalidGeometry is returned when a filter is created or decoded
	// with a zero size, a hash count outside 1…MaxK or an unknown layout.
	ErrInvalidGeometry = errors.New("bloom: invalid filter geometry")
)

const wordBits = 64

// Layout selects how a filter maps probe positions onto its bit vector.
type Layout uint8

const (
	// LayoutClassic spreads the k probes over the whole vector:
	// index_i = (h1 + i·h2) mod m.
	LayoutClassic Layout = iota
	// LayoutBlocked confines all k probes of a key to one 512-bit block
	// selected by h1, so a query touches a single cache line.
	LayoutBlocked
)

// String names the layout for diagnostics.
func (l Layout) String() string {
	switch l {
	case LayoutClassic:
		return "classic"
	case LayoutBlocked:
		return "blocked"
	default:
		return fmt.Sprintf("layout(%d)", uint8(l))
	}
}

// blockBits is the block size of LayoutBlocked: one 64-byte cache line.
const blockBits = 512

// Filter is a standard Bloom filter over byte-string keys. Every probe and
// insert reads a Digest's cached positions: the key-based methods hash the
// key into a stack digest and run the digest code, which is why no geometry
// has more than MaxK hash functions.
//
// The zero value is not usable; construct filters with New, NewLayout or
// NewForCapacity.
//
// Concurrency: mutation (AddString, AddDigest, UnmarshalBinary) requires
// external serialization at the layer that owns the filter — the MDS layer
// in this repository serializes writers behind per-node locks. Membership
// probes (Contains, ContainsDigest) are safe to run lock-free concurrently
// with a serialized writer: probes load words atomically and writers
// publish them atomically, so the epoch-snapshot read path never takes a
// lock to query a live filter. A probe racing an in-flight add may miss
// that key until the add completes — the same transient miss the paper's
// asynchronous replica propagation already tolerates — but never corrupts
// the vector.
type Filter struct {
	m      uint64 // number of bits
	k      uint32 // number of hash functions
	n      uint64 // number of Add calls since creation (approximate set size); atomic
	layout Layout
	words  []uint64
}

// New creates a classic-layout filter with exactly m bits and k hash
// functions.
func New(m uint64, k uint32) (*Filter, error) {
	return NewLayout(m, k, LayoutClassic)
}

// NewLayout creates a filter with the given geometry and bit layout. For
// LayoutBlocked, m is rounded up to a whole number of 512-bit blocks so
// every block is full-sized.
func NewLayout(m uint64, k uint32, layout Layout) (*Filter, error) {
	m, err := layoutBits(m, k, layout)
	if err != nil {
		return nil, err
	}
	return &Filter{
		m:      m,
		k:      k,
		layout: layout,
		words:  make([]uint64, (m+wordBits-1)/wordBits),
	}, nil
}

// layoutBits validates a geometry and returns the vector length a filter of
// that layout actually gets: m itself, or m rounded up to whole blocks.
func layoutBits(m uint64, k uint32, layout Layout) (uint64, error) {
	if m == 0 || k == 0 || k > MaxK {
		return 0, fmt.Errorf("%w: m=%d k=%d (1 ≤ k ≤ %d)", ErrInvalidGeometry, m, k, MaxK)
	}
	switch layout {
	case LayoutClassic:
	case LayoutBlocked:
		if r := m % blockBits; r != 0 {
			m += blockBits - r
		}
	default:
		return 0, fmt.Errorf("%w: unknown layout %d", ErrInvalidGeometry, uint8(layout))
	}
	return m, nil
}

// NewForCapacity creates a classic-layout filter sized for n items at the
// given bits-per-item ratio (the paper's m/n), using the optimal hash count
// k = (m/n)·ln 2. This is the constructor used throughout G-HBA, where
// bitsPerItem is a deployment parameter (8 and 16 are the ratios evaluated
// in Table 5).
func NewForCapacity(n uint64, bitsPerItem float64) (*Filter, error) {
	return NewForCapacityLayout(n, bitsPerItem, LayoutClassic)
}

// NewForCapacityLayout is NewForCapacity with an explicit bit layout.
func NewForCapacityLayout(n uint64, bitsPerItem float64, layout Layout) (*Filter, error) {
	m, k, err := CapacityGeometry(n, bitsPerItem, layout)
	if err != nil {
		return nil, err
	}
	return NewLayout(m, k, layout)
}

// CapacityGeometry returns the (m, k) of the filter NewForCapacityLayout
// builds for n items at bitsPerItem, for containers that keep same-geometry
// bit storage of their own (see Digest.Positions). It is the one check of a
// capacity sizing: a bitsPerItem that is not a positive finite number, one
// whose n·bitsPerItem bits do not fit a uint64, or one whose OptimalK hash
// count exceeds MaxK (above about 46 bits per item) is ErrInvalidGeometry.
func CapacityGeometry(n uint64, bitsPerItem float64, layout Layout) (m uint64, k uint32, err error) {
	bits := math.Ceil(float64(n) * bitsPerItem)
	hashes := math.Round(bitsPerItem * math.Ln2)
	if n == 0 || !(bitsPerItem > 0) || bits >= 0x1p64 || hashes > MaxK {
		return 0, 0, fmt.Errorf("%w: n=%d bits/item=%g", ErrInvalidGeometry, n, bitsPerItem)
	}
	k = OptimalK(bitsPerItem)
	m, err = layoutBits(uint64(bits), k, layout)
	return m, k, err
}

// OptimalK returns the hash count minimizing the false-positive rate for the
// given bits-per-item ratio: k = (m/n)·ln 2, at least 1.
func OptimalK(bitsPerItem float64) uint32 {
	k := uint32(math.Round(bitsPerItem * math.Ln2))
	if k == 0 {
		k = 1
	}
	return k
}

// M returns the filter length in bits.
func (f *Filter) M() uint64 { return f.m }

// K returns the number of hash functions.
func (f *Filter) K() uint32 { return f.k }

// Count returns the number of insertions since creation. It over-counts
// re-insertions of the same key and is used only for load accounting, never
// for membership decisions.
func (f *Filter) Count() uint64 { return atomic.LoadUint64(&f.n) }

// AddString inserts a string key without copying it to a byte slice,
// reporting like AddDigest.
func (f *Filter) AddString(key string) int {
	var d Digest
	d.h1, d.h2 = hashPairString(key)
	return f.addDigest(&d, nil)
}

// AddStringXor inserts a string key and reports by how much that moved
// f.XorBits(ref): +1 for every bit turned on that ref lacks, −1 for every one
// ref already has. An owner that adds the reports up tracks its distance to
// ref in O(k) per insert instead of re-scanning both vectors. ref must not
// be written concurrently.
func (f *Filter) AddStringXor(key string, ref *Filter) (int, error) {
	if err := f.sameGeometry(ref); err != nil {
		return 0, err
	}
	var d Digest
	d.h1, d.h2 = hashPairString(key)
	return f.addDigest(&d, ref), nil
}

// setBit turns one bit on and reports whether it was off. Writers are
// serialized, so a load tells what the OR will find and a bit already set
// skips the locked instruction. (It also keeps the value-returning
// atomic.OrUint64 out of these loops: go1.24.0 lowers it on amd64 to a
// CMPXCHG loop whose scratch register overwrites a live local.)
func (f *Filter) setBit(bit uint64) bool {
	w, mask := &f.words[bit/wordBits], uint64(1)<<(bit%wordBits)
	if atomic.LoadUint64(w)&mask != 0 {
		return false
	}
	atomic.OrUint64(w, mask)
	return true
}

// Contains reports whether key may be in the set, like ContainsDigest.
func (f *Filter) Contains(key []byte) bool {
	var d Digest
	d.h1, d.h2 = hashPair(key)
	return f.ContainsDigest(&d)
}

// Clone returns a deep copy of the filter.
func (f *Filter) Clone() *Filter {
	w := make([]uint64, len(f.words))
	copy(w, f.words)
	return &Filter{m: f.m, k: f.k, n: f.Count(), layout: f.layout, words: w}
}

// SizeBytes returns the in-memory size of the bit vector in bytes. This is
// the unit the memory model (internal/memmodel) budgets against.
func (f *Filter) SizeBytes() uint64 { return uint64(len(f.words)) * 8 }

// sameGeometry verifies that g can be compared with f.
func (f *Filter) sameGeometry(g *Filter) error {
	if f.m != g.m || f.k != g.k || f.layout != g.layout {
		return fmt.Errorf("%w: (m=%d,k=%d,%v) vs (m=%d,k=%d,%v)",
			ErrGeometryMismatch, f.m, f.k, f.layout, g.m, g.k, g.layout)
	}
	return nil
}

// setCount overwrites the insertion counter. Writers are externally
// serialized; the atomic store keeps lock-free Count readers race-clean.
func (f *Filter) setCount(n uint64) { atomic.StoreUint64(&f.n, n) }

// XorBits returns the Hamming distance between the two bit vectors. G-HBA
// uses this (Section 3.4) to decide when a remote replica is stale enough to
// justify pushing an update: the delta of a filter against its last-shipped
// snapshot is compared against a bit threshold.
func (f *Filter) XorBits(g *Filter) (uint64, error) {
	if err := f.sameGeometry(g); err != nil {
		return 0, err
	}
	var c uint64
	for i, w := range g.words {
		c += uint64(bits.OnesCount64(f.words[i] ^ w))
	}
	return c, nil
}
