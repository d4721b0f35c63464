package bloom

import "sync/atomic"

// Digest is the hash-once currency of the query path: the two
// Kirsch–Mitzenmacher base hashes of one key, computed a single time per
// lookup, plus the k probe positions materialized once per filter geometry
// and reused across every replica sharing that geometry. Because a G-HBA
// deployment mandates one (m, k, layout) for all its filters, a whole L1→L4
// lookup — dozens of replica probes — reduces to one key hash, one set of k
// position derivations, and k word loads per filter (one cache line per
// filter under LayoutBlocked).
//
// A Digest is mutable scratch state (the position cache re-materializes when
// the probed geometry changes) and must not be shared between goroutines;
// each lookup computes its own. The zero value is not meaningful; construct
// digests with NewDigest or NewDigestString, or re-key a pooled one in place
// with ResetString.
type Digest struct {
	h1, h2 uint64

	// Cached probe positions for the most recently probed geometry. A
	// single slot suffices: lookups probe same-geometry filter runs (all
	// L1 generations, then all L2/L3 replicas), so switches are rare. The
	// layout participates in the cache key — classic and blocked filters
	// of equal (m, k) map the same key to different positions.
	m      uint64
	k      uint32
	layout Layout
	pos    [digestMaxK]uint64
}

// digestMaxK bounds the cached probe positions. k = (m/n)·ln 2 stays below
// 12 for every ratio the paper evaluates; geometries beyond the bound still
// work, falling back to per-probe index derivation.
const digestMaxK = 32

// NewDigest hashes a byte-string key into a digest.
func NewDigest(key []byte) Digest {
	h1, h2 := hashPair(key)
	return Digest{h1: h1, h2: h2}
}

// NewDigestString hashes a string key into a digest without copying the key
// to a byte slice; it produces bit-for-bit the same digest as NewDigest on
// the key's bytes.
func NewDigestString(key string) Digest {
	h1, h2 := hashPairString(key)
	return Digest{h1: h1, h2: h2}
}

// ResetString re-keys d in place to NewDigestString(key): the base hashes
// are replaced and the cached geometry invalidated (no geometry has k = 0),
// so the next probe re-materializes its positions. A pooled digest is reset
// this way instead of being assigned a fresh value, which would copy the
// whole position cache.
func (d *Digest) ResetString(key string) {
	d.h1, d.h2 = hashPairString(key)
	d.k = 0
}

// Positions returns the k probe positions for geometry (m, k, layout),
// materializing and caching them on first use. Returns nil when k exceeds
// the cache bound; callers then derive each index with PositionAt. It is
// exported for containers that probe their own bit storage at a filter
// geometry (bloomarray's bit-sliced L1) and must agree with Filter bit for
// bit; the returned slice aliases the digest and is read-only.
func (d *Digest) Positions(m uint64, k uint32, layout Layout) []uint64 {
	if k > digestMaxK {
		return nil
	}
	if d.m != m || d.k != k || d.layout != layout {
		if layout == LayoutBlocked {
			for i := uint32(0); i < k; i++ {
				d.pos[i] = blockedIndexAt(d.h1, d.h2, i, m)
			}
		} else {
			for i := uint32(0); i < k; i++ {
				d.pos[i] = indexAt(d.h1, d.h2, i, m)
			}
		}
		d.m, d.k, d.layout = m, k, layout
	}
	return d.pos[:k]
}

// PositionAt derives the i-th probe position for an m-bit vector of the
// given layout without touching the cache: the path for k beyond the cache
// bound, where Positions returns nil.
func (d *Digest) PositionAt(i uint32, m uint64, layout Layout) uint64 {
	return layoutIndexAt(d.h1, d.h2, i, m, layout)
}

// ContainsDigest reports whether the digested key may be in the set. It is
// bit-for-bit equivalent to Contains on the same key: k word loads against
// the cached probe positions, no hashing, no allocation. Like Contains it is
// safe to call lock-free concurrently with a serialized writer.
func (f *Filter) ContainsDigest(d *Digest) bool {
	if pos := d.Positions(f.m, f.k, f.layout); pos != nil {
		for _, bit := range pos {
			if atomic.LoadUint64(&f.words[bit/wordBits])&(1<<(bit%wordBits)) == 0 {
				return false
			}
		}
		return true
	}
	return f.containsPair(d.h1, d.h2)
}

// AddDigest inserts the digested key, equivalent to Add on the same key
// (the count of bits turned on included).
func (f *Filter) AddDigest(d *Digest) int {
	if pos := d.Positions(f.m, f.k, f.layout); pos != nil {
		fresh := 0
		for _, bit := range pos {
			if f.setBit(bit) {
				fresh++
			}
		}
		atomic.AddUint64(&f.n, 1)
		return fresh
	}
	return f.addPair(d.h1, d.h2, nil)
}
