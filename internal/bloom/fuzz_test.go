package bloom

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// fuzzSeedFilter builds a small filter with a few keys for the seed corpus.
func fuzzSeedFilter(tb testing.TB, capacity uint64, bits float64, keys ...string) []byte {
	tb.Helper()
	f, err := NewForCapacity(capacity, bits)
	if err != nil {
		tb.Fatal(err)
	}
	for _, k := range keys {
		f.AddString(k)
	}
	data, err := f.MarshalBinary()
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzFilterMarshal fuzzes the wire decoder with arbitrary bytes: decoding
// must never panic, and any input the decoder accepts must re-encode and
// re-decode to an identical filter (decode∘encode is the identity on the
// image of encode). The seed corpus covers valid encodings, truncations,
// wrong magics, and headers with adversarial geometry.
func FuzzFilterMarshal(f *testing.F) {
	// Valid encodings.
	f.Add(fuzzSeedFilter(f, 64, 8))
	f.Add(fuzzSeedFilter(f, 128, 16, "/a/b/c", "/d/e/f", "/sub0/d1/d2/f3"))
	big := fuzzSeedFilter(f, 4_096, 12, "/x")
	f.Add(big)
	// Truncated header and truncated body.
	f.Add(big[:5])
	f.Add(big[:len(big)-3])
	// Wrong magic (0xB1F1, the retired counting-filter tag).
	wrongMagic := bytes.Clone(big)
	binary.BigEndian.PutUint16(wrongMagic[0:2], 0xB1F1)
	f.Add(wrongMagic)
	// Adversarial geometry: m near 2^64 (word-count overflow bait), huge k.
	overflow := bytes.Clone(big)
	binary.BigEndian.PutUint64(overflow[2:10], ^uint64(0))
	f.Add(overflow)
	hugeK := bytes.Clone(big)
	binary.BigEndian.PutUint32(hugeK[10:14], ^uint32(0))
	f.Add(hugeK)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var flt Filter
		if err := flt.UnmarshalBinary(data); err != nil {
			return // rejected input: the only requirement is not panicking
		}
		enc, err := flt.MarshalBinary()
		if err != nil {
			t.Fatalf("re-encoding accepted input: %v", err)
		}
		var back Filter
		if err := back.UnmarshalBinary(enc); err != nil {
			t.Fatalf("decoding own encoding: %v", err)
		}
		if !back.Equal(&flt) {
			t.Fatalf("round-trip changed filter: m=%d/%d k=%d/%d", back.M(), flt.M(), back.K(), flt.K())
		}
		if back.Count() != flt.Count() {
			t.Fatalf("round-trip changed count: %d vs %d", back.Count(), flt.Count())
		}
		if !bytes.Equal(enc, mustEncode(t, &back)) {
			t.Fatal("encoding is not canonical")
		}
	})
}

// FuzzFilterRoundTrip fuzzes the encode side from constructed filters:
// decode(encode(f)) must equal f for any geometry and key set the package
// can build.
func FuzzFilterRoundTrip(f *testing.F) {
	f.Add(uint16(10), byte(8), []byte("/a\x00/b/longer/path\x00x"))
	f.Add(uint16(1), byte(1), []byte(""))
	f.Add(uint16(1000), byte(24), []byte("key"))

	f.Fuzz(func(t *testing.T, capacity uint16, bits byte, keyBlob []byte) {
		flt, err := NewForCapacity(uint64(capacity)+1, float64(bits%64)+0.5)
		if err != nil {
			t.Skipf("geometry rejected: %v", err)
		}
		for _, key := range bytes.Split(keyBlob, []byte{0}) {
			flt.Add(key)
		}
		enc, err := flt.MarshalBinary()
		if err != nil {
			t.Fatalf("encoding: %v", err)
		}
		var back Filter
		if err := back.UnmarshalBinary(enc); err != nil {
			t.Fatalf("decoding: %v", err)
		}
		if !back.Equal(flt) || back.Count() != flt.Count() {
			t.Fatal("decode(encode(f)) ≠ f")
		}
		// Probe parity: a decoded filter answers like the original.
		for _, key := range bytes.Split(keyBlob, []byte{0}) {
			if !back.Contains(key) {
				t.Fatalf("decoded filter lost key %q", key)
			}
		}
	})
}

func mustEncode(t *testing.T, f *Filter) []byte {
	t.Helper()
	enc, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return enc
}
