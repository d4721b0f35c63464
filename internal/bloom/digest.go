package bloom

import "sync/atomic"

// Digest is the hash-once currency of every probe: the two
// Kirsch–Mitzenmacher base hashes of one key, computed a single time, plus
// the k probe positions materialized once per filter geometry and reused
// across every filter sharing that geometry. Because a G-HBA deployment
// mandates one (m, k, layout) for all its filters, a whole L1→L4 lookup —
// dozens of replica probes — reduces to one key hash, one set of k position
// derivations, and k word loads per filter (one cache line per filter under
// LayoutBlocked). The key-based Filter methods build a digest on the stack
// and run the same code, so there is no second way to derive a position.
//
// A Digest is mutable scratch state (the position cache re-materializes when
// the probed geometry changes) and must not be shared between goroutines;
// each lookup computes its own. The zero value is not meaningful; construct
// digests with NewDigestString, or re-key a pooled one in place
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
	pos    [MaxK]uint64
}

// MaxK is the largest hash count of any filter geometry, the one bound every
// constructor and the wire decoder enforce: it is the size of a digest's
// position cache, so every probe reads cached positions. The optimal
// k = (m/n)·ln 2 reaches it at about 46 bits per item; the paper evaluates 8
// and 16 (k = 6 and 11).
const MaxK = 32

// NewDigestString hashes a string key into a digest without copying the key
// to a byte slice; it produces bit-for-bit the same digest as the key-based
// Filter methods derive from the key's bytes.
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
// materializing and caching them on first use; k must not exceed MaxK,
// which no filter of this package does. It is exported for containers that
// probe their own bit storage at a filter geometry (bloomarray's bit-sliced
// L1) and must agree with Filter bit for bit; the returned slice aliases the
// digest and is read-only.
func (d *Digest) Positions(m uint64, k uint32, layout Layout) []uint64 {
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

// ContainsDigest reports whether the digested key may be in the set: k word
// loads against the cached probe positions, no hashing, no allocation. False
// positives occur with probability roughly FalsePositiveRate; false negatives
// never occur for keys that were added (standard filters cannot remove). It
// is safe to call lock-free concurrently with a serialized writer.
func (f *Filter) ContainsDigest(d *Digest) bool {
	for _, bit := range d.Positions(f.m, f.k, f.layout) {
		if atomic.LoadUint64(&f.words[bit/wordBits])&(1<<(bit%wordBits)) == 0 {
			return false
		}
	}
	return true
}

// AddDigest inserts the digested key and reports how many bits that turned
// on (0 when every probe position was already set).
func (f *Filter) AddDigest(d *Digest) int {
	return f.addDigest(d, nil)
}

// addDigest sets the digested key's k probe bits and returns the signed
// count of bits it turned on: one that ref (same geometry, may be nil)
// already has counts −1, any other +1.
func (f *Filter) addDigest(d *Digest, ref *Filter) int {
	moved := 0
	for _, bit := range d.Positions(f.m, f.k, f.layout) {
		if !f.setBit(bit) {
			continue
		}
		if ref != nil && ref.words[bit/wordBits]&(1<<(bit%wordBits)) != 0 {
			moved--
		} else {
			moved++
		}
	}
	atomic.AddUint64(&f.n, 1)
	return moved
}
