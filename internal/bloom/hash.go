package bloom

// Deterministic hashing shared by every filter in a deployment. All MDSs —
// whether simulated in one process or running as separate prototype daemons —
// must derive identical bit positions for the same key, so the hash is a
// fixed-seed FNV-1a pass followed by a SplitMix64 finalizer, combined with
// Kirsch–Mitzenmacher double hashing: index_i = (h1 + i·h2) mod m.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv1a computes the 64-bit FNV-1a hash of key.
func fnv1a(key []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	return h
}

// fnv1aString computes the 64-bit FNV-1a hash of a string's bytes without
// converting it to a byte slice, so string-keyed probes never allocate. It
// returns exactly fnv1a([]byte(key)).
func fnv1aString(key string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	return h
}

// splitmix64 is the finalizer from Vigna's SplitMix64 generator; it is a
// strong 64-bit mixer used to derive the second hash from the first.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashPair returns the two base hashes for double hashing. h2 is forced odd
// so that for power-of-two m the stride is coprime with the table size.
func hashPair(key []byte) (h1, h2 uint64) {
	h1 = fnv1a(key)
	h2 = splitmix64(h1) | 1
	return h1, h2
}

// hashPairString is hashPair for string keys, allocation-free.
func hashPairString(key string) (h1, h2 uint64) {
	h1 = fnv1aString(key)
	h2 = splitmix64(h1) | 1
	return h1, h2
}

// indexAt returns the i-th probe position for the (h1, h2) pair in a table of
// m bits.
func indexAt(h1, h2 uint64, i uint32, m uint64) uint64 {
	return (h1 + uint64(i)*h2) % m
}

// blockedIndexAt returns the i-th probe position for the (h1, h2) pair in a
// cache-line-blocked table of m bits (m a multiple of blockBits): h1 selects
// one 512-bit block and every probe lands inside it, so a whole k-probe query
// touches a single cache line. Within the block the probes walk the same
// Kirsch–Mitzenmacher sequence reduced mod 512 — h2 is odd, hence coprime
// with the block size, so the k offsets are distinct for every k ≤ 512.
func blockedIndexAt(h1, h2 uint64, i uint32, m uint64) uint64 {
	base := (h1 % (m / blockBits)) * blockBits
	off := (h1 + uint64(i)*h2) & (blockBits - 1)
	return base + off
}
