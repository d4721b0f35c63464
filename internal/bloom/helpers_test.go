package bloom

import "math/bits"

// The byte-key insert, the digest of a byte key and the whole-vector
// comparisons are reached only by this package's tests; the engine inserts
// and probes through string digests.

// Add inserts key into the filter, reporting like AddDigest.
func (f *Filter) Add(key []byte) int {
	d := NewDigest(key)
	return f.addDigest(&d, nil)
}

// NewDigest hashes a byte-string key into a digest.
func NewDigest(key []byte) Digest {
	h1, h2 := hashPair(key)
	return Digest{h1: h1, h2: h2}
}

// Layout returns the filter's bit layout.
func (f *Filter) Layout() Layout { return f.layout }

// PopCount returns the number of set bits.
func (f *Filter) PopCount() uint64 {
	var c uint64
	for _, w := range f.words {
		c += uint64(bits.OnesCount64(w))
	}
	return c
}

// Equal reports whether two filters have identical geometry and bit vectors.
func (f *Filter) Equal(g *Filter) bool {
	if f.m != g.m || f.k != g.k || f.layout != g.layout {
		return false
	}
	for i, w := range f.words {
		if g.words[i] != w {
			return false
		}
	}
	return true
}
