package bloom

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// randKey draws a random printable key of random length.
func randKey(rng *rand.Rand) []byte {
	n := 1 + rng.Intn(64)
	key := make([]byte, n)
	for i := range key {
		key[i] = byte(' ' + rng.Intn(95))
	}
	return key
}

// TestDigestStringMatchesBytes checks that the allocation-free string hasher
// derives the same digest as the byte-slice path.
func TestDigestStringMatchesBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1_000; i++ {
		key := randKey(rng)
		db := NewDigest(key)
		ds := NewDigestString(string(key))
		if db.h1 != ds.h1 || db.h2 != ds.h2 {
			t.Fatalf("digest mismatch for %q: bytes (%d,%d) vs string (%d,%d)",
				key, db.h1, db.h2, ds.h1, ds.h2)
		}
	}
}

// refPositions derives key's k probe positions in f one at a time from the
// base hashes, without a digest's cache: the reference the cached positions
// must reproduce.
func refPositions(f *Filter, key []byte) []uint64 {
	h1, h2 := hashPair(key)
	pos := make([]uint64, f.k)
	for i := range pos {
		if f.layout == LayoutBlocked {
			pos[i] = blockedIndexAt(h1, h2, uint32(i), f.m)
		} else {
			pos[i] = indexAt(h1, h2, uint32(i), f.m)
		}
	}
	return pos
}

// refContains is membership by refPositions.
func refContains(f *Filter, key []byte) bool {
	for _, bit := range refPositions(f, key) {
		if f.words[bit/wordBits]&(1<<(bit%wordBits)) == 0 {
			return false
		}
	}
	return true
}

// TestContainsDigestEquivalence is the property test of the hash-once
// pipeline: for random keys and random geometries up to k = MaxK,
// ContainsDigest and Contains must answer exactly like the per-probe
// reference, and AddDigest must set exactly the bits it names.
func TestContainsDigestEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		m := uint64(64 + rng.Intn(8192))
		k := uint32(1 + rng.Intn(MaxK))
		if trial == 0 {
			k = MaxK
		}
		want, err := New(m, k)
		if err != nil {
			t.Fatal(err)
		}
		byDigest, err := New(m, k)
		if err != nil {
			t.Fatal(err)
		}
		var keys [][]byte
		for i := 0; i < 100; i++ {
			key := randKey(rng)
			keys = append(keys, key)
			for _, bit := range refPositions(want, key) {
				want.words[bit/wordBits] |= 1 << (bit % wordBits)
			}
			d := NewDigest(key)
			byDigest.AddDigest(&d)
		}
		if !want.Equal(byDigest) {
			t.Fatalf("m=%d k=%d: AddDigest diverged from the reference (bit vectors differ)", m, k)
		}
		for i := 0; i < 500; i++ {
			key := randKey(rng)
			if i < len(keys) {
				key = keys[i] // guaranteed positives
			}
			d := NewDigest(key)
			if got, want := byDigest.ContainsDigest(&d), refContains(byDigest, key); got != want {
				t.Fatalf("m=%d k=%d key=%q: ContainsDigest=%v reference=%v", m, k, key, got, want)
			}
			if got, want := byDigest.Contains(key), refContains(byDigest, key); got != want {
				t.Fatalf("m=%d k=%d key=%q: Contains=%v reference=%v", m, k, key, got, want)
			}
		}
	}
}

// TestDigestGeometrySwitch checks that one digest probed against different
// geometries re-materializes its positions correctly — the L1→L2 pattern
// where the LRU and segment filters differ in size.
func TestDigestGeometrySwitch(t *testing.T) {
	small, _ := New(512, 4)
	big, _ := New(65_536, 11)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		key := randKey(rng)
		if i%2 == 0 {
			small.Add(key)
		} else {
			big.Add(key)
		}
	}
	for i := 0; i < 300; i++ {
		key := randKey(rng)
		d := NewDigest(key)
		// Alternate probes against both geometries with one digest.
		for rep := 0; rep < 2; rep++ {
			if got, want := small.ContainsDigest(&d), refContains(small, key); got != want {
				t.Fatalf("small geometry: ContainsDigest=%v reference=%v for %q", got, want, key)
			}
			if got, want := big.ContainsDigest(&d), refContains(big, key); got != want {
				t.Fatalf("big geometry: ContainsDigest=%v reference=%v for %q", got, want, key)
			}
		}
	}
}

// TestDigestResetString checks the in-place re-key of a pooled digest: one
// digest carried from key to key — its position cache warm for the very
// geometry probed next, the case a missed invalidation would get wrong — must
// probe exactly like a fresh digest of each key and like the per-probe
// reference, for every k up to MaxK, and through a filter.
func TestDigestResetString(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var pooled Digest
	for trial := 0; trial < 200; trial++ {
		m := uint64(512 * (1 + rng.Intn(64)))
		k := uint32(1 + rng.Intn(MaxK))
		layout := Layout(trial % 2)
		f, err := NewLayout(m, k, layout)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			key := string(randKey(rng))
			if i%2 == 0 {
				f.AddString(key)
			}
			pooled.ResetString(key)
			fresh := NewDigestString(key)
			if got, want := pooled.Positions(m, k, layout), fresh.Positions(m, k, layout); !slices.Equal(got, want) {
				t.Fatalf("m=%d k=%d %v key=%q: reset digest probes %v, fresh %v", m, k, layout, key, got, want)
			}
			if got, want := pooled.Positions(m, k, layout), refPositions(f, []byte(key)); !slices.Equal(got, want) {
				t.Fatalf("m=%d k=%d %v key=%q: reset digest probes %v, reference %v", m, k, layout, key, got, want)
			}
			if got, want := f.ContainsDigest(&pooled), f.ContainsDigest(&fresh); got != want {
				t.Fatalf("m=%d k=%d %v key=%q: reset digest answers %v, fresh %v", m, k, layout, key, got, want)
			}
		}
	}
}

// TestContainsDigestZeroAlloc pins the headline property: the digest
// operations the lookup walk runs — re-keying a pooled digest, materializing
// its positions at either layout, probing and inserting — perform no heap
// allocation, and neither does the byte-keyed Contains.
func TestContainsDigestZeroAlloc(t *testing.T) {
	f, err := NewForCapacity(10_000, 16)
	if err != nil {
		t.Fatal(err)
	}
	blocked, err := NewForCapacityLayout(10_000, 16, LayoutBlocked)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		f.AddString(fmt.Sprintf("/alloc/file%d", i))
	}
	d := NewDigestString("/alloc/file7")
	key := []byte("/alloc/file7")
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"ContainsDigest", func() {
			if !f.ContainsDigest(&d) {
				t.Fatal("added key not found")
			}
		}},
		{"Contains", func() {
			if !f.Contains(key) {
				t.Fatal("added key not found")
			}
		}},
		// Re-keying drops the cached positions, so both Positions calls
		// materialize them afresh.
		{"ResetString+Positions", func() {
			d.ResetString("/alloc/file7")
			d.Positions(f.M(), f.K(), LayoutClassic)
			d.Positions(blocked.M(), blocked.K(), LayoutBlocked)
		}},
		// The two geometries differ, so each insert re-materializes too.
		{"AddDigest", func() {
			f.AddDigest(&d)
			blocked.AddDigest(&d)
		}},
	} {
		if allocs := testing.AllocsPerRun(1_000, tc.op); allocs != 0 {
			t.Errorf("%s allocates %.2f objects/op, want 0", tc.name, allocs)
		}
	}
}
