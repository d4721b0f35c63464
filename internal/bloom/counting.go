package bloom

import "fmt"

// counterMax is the saturation value of a counting-filter cell. Cells that
// reach it stop incrementing and are never decremented, trading a slightly
// higher false-positive rate for safety against counter underflow, the
// standard approach from Fan et al.'s Summary Cache.
const counterMax = ^uint8(0)

// CountingFilter is a Bloom filter with per-position counters, supporting
// deletion. G-HBA uses counting filters in the identification Bloom filter
// array (IDBFA) so that replica ownership can be revoked when a replica
// migrates between group members or an MDS departs (Section 2.4).
//
// CountingFilter is not safe for concurrent mutation.
type CountingFilter struct {
	m        uint64
	k        uint32
	n        uint64
	counters []uint8
}

// NewCounting creates a counting filter with m counters and k hash functions.
func NewCounting(m uint64, k uint32) (*CountingFilter, error) {
	if m == 0 || k == 0 {
		return nil, fmt.Errorf("%w: m=%d k=%d", ErrInvalidGeometry, m, k)
	}
	return &CountingFilter{m: m, k: k, counters: make([]uint8, m)}, nil
}

// M returns the number of counters.
func (c *CountingFilter) M() uint64 { return c.m }

// K returns the number of hash functions.
func (c *CountingFilter) K() uint32 { return c.k }

// Count returns the net number of items (adds minus removes).
func (c *CountingFilter) Count() uint64 { return c.n }

// Add inserts key, incrementing the k counters it maps to.
func (c *CountingFilter) Add(key []byte) {
	h1, h2 := hashPair(key)
	c.addPair(h1, h2)
}

// AddString inserts a string key without copying it to a byte slice.
func (c *CountingFilter) AddString(key string) {
	h1, h2 := hashPairString(key)
	c.addPair(h1, h2)
}

func (c *CountingFilter) addPair(h1, h2 uint64) {
	for i := uint32(0); i < c.k; i++ {
		idx := indexAt(h1, h2, i, c.m)
		if c.counters[idx] < counterMax {
			c.counters[idx]++
		}
	}
	c.n++
}

// Remove deletes one occurrence of key, decrementing its counters. Removing a
// key that was never added corrupts the filter (it may introduce false
// negatives for other keys); callers must pair removes with prior adds, which
// the IDBFA layer guarantees by construction.
func (c *CountingFilter) Remove(key []byte) {
	h1, h2 := hashPair(key)
	c.removePair(h1, h2)
}

func (c *CountingFilter) removePair(h1, h2 uint64) {
	for i := uint32(0); i < c.k; i++ {
		idx := indexAt(h1, h2, i, c.m)
		if c.counters[idx] > 0 && c.counters[idx] < counterMax {
			c.counters[idx]--
		}
	}
	if c.n > 0 {
		c.n--
	}
}

// Contains reports whether key may be in the set.
func (c *CountingFilter) Contains(key []byte) bool {
	h1, h2 := hashPair(key)
	return c.containsPair(h1, h2)
}

// ContainsString reports whether a string key may be in the set.
func (c *CountingFilter) ContainsString(key string) bool {
	h1, h2 := hashPairString(key)
	return c.containsPair(h1, h2)
}

func (c *CountingFilter) containsPair(h1, h2 uint64) bool {
	for i := uint32(0); i < c.k; i++ {
		if c.counters[indexAt(h1, h2, i, c.m)] == 0 {
			return false
		}
	}
	return true
}

// SizeBytes returns the in-memory size of the counter array in bytes.
func (c *CountingFilter) SizeBytes() uint64 { return uint64(len(c.counters)) }
