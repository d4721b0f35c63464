package proto

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"ghba/internal/wal"
)

// codecSamples are fixed request and response bodies for the decoders a
// daemon or the coordinator runs on peer-supplied bytes.
func codecSamples() (paths []string, recs []wal.Record, obs []observation, hits [][]int) {
	paths = []string{"", "/a", "/usr/share/dict/words", strings.Repeat("x", 300)}
	kinds := [2]uint8{wal.OpCreate, wal.OpDelete}
	for i, p := range paths {
		recs = append(recs, wal.Record{Op: kinds[i%2], Path: p})
		obs = append(obs, observation{home: i * 7, path: p})
	}
	hits = [][]int{{}, {0}, {3, 1, 4, 1, 5}, {1 << 30}}
	return paths, recs, obs, hits
}

// TestDecodeAllocs pins what each vector decoder allocates on a fixed body:
// the vector, then one copy per non-empty path or hit list — for a lookup
// request, both of its vectors. The reader the decoders share lives on their
// stacks, so it adds nothing.
func TestDecodeAllocs(t *testing.T) {
	paths, recs, obs, hits := codecSamples()
	pathWire, recWire, lookupWire := encodePaths(paths), encodeMutations(9, recs), encodeLookupRequest(obs, paths)
	var hitWire []byte
	for _, h := range hits {
		hitWire = appendHits(hitWire, h)
	}
	for _, tc := range []struct {
		name   string
		want   float64
		decode func() error
	}{
		{"decodePaths", 4, func() error { _, err := decodePaths(pathWire); return err }},
		{"decodeMutations", 4, func() error { _, _, err := decodeMutations(recWire); return err }},
		{"decodeLookupRequest", 8, func() error { _, _, err := decodeLookupRequest(lookupWire); return err }},
		{"decodeHitsVec", 4, func() error { _, err := decodeHitsVec(hitWire, len(hits)); return err }},
	} {
		if err := tc.decode(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := testing.AllocsPerRun(100, func() { _ = tc.decode() }); got != tc.want {
			t.Errorf("%s: %v allocations, want %v", tc.name, got, tc.want)
		}
	}
}

// TestDecodedValuesOwnTheirBytes overwrites each body after decoding it: a
// daemon reuses its receive buffers, so no decoded path may alias the frame.
func TestDecodedValuesOwnTheirBytes(t *testing.T) {
	paths, recs, obs, _ := codecSamples()
	scribble := func(b []byte) {
		for i := range b {
			b[i] = 0xa5
		}
	}
	pathWire, recWire, lookupWire := encodePaths(paths), encodeMutations(9, recs), encodeLookupRequest(obs, paths)
	gotPaths, err := decodePaths(pathWire)
	if err != nil {
		t.Fatal(err)
	}
	_, gotRecs, err := decodeMutations(recWire)
	if err != nil {
		t.Fatal(err)
	}
	gotObs, gotLookupPaths, err := decodeLookupRequest(lookupWire)
	if err != nil {
		t.Fatal(err)
	}
	scribble(pathWire)
	scribble(recWire)
	scribble(lookupWire)
	if !reflect.DeepEqual(gotPaths, paths) {
		t.Errorf("paths changed with their frame: %q", gotPaths)
	}
	if !reflect.DeepEqual(gotRecs, recs) {
		t.Errorf("mutations changed with their frame: %q", gotRecs)
	}
	if !reflect.DeepEqual(gotObs, obs) || !reflect.DeepEqual(gotLookupPaths, paths) {
		t.Errorf("lookup request changed with its frame: %v, %q", gotObs, gotLookupPaths)
	}
}

// FuzzObservationBatch drives the lookup_batch request decoder, whose
// observation batch comes first: arbitrary bytes must never panic it, and
// since it refuses counts the bytes cannot carry and trailing bytes,
// anything it accepts must re-encode to exactly the bytes it was given.
func FuzzObservationBatch(f *testing.F) {
	paths, _, obs, _ := codecSamples()
	two := encodeLookupRequest(obs[:2], paths[1:2])
	f.Add([]byte{})
	f.Add(encodeLookupRequest(nil, nil))                    // zero counts
	f.Add(two)                                              // two records, one of the empty path, and one path
	f.Add(two[:len(two)-1])                                 // one byte short
	f.Add(append(two[:len(two):len(two)], 0))               // one byte long
	f.Add([]byte{0, 0, 0xff, 0xff})                         // count 0xFFFF with no records behind it
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 1, 0, 2, 0, 0, 0, 0}) // a path length past the end
	f.Fuzz(func(t *testing.T, data []byte) {
		obs, paths, err := decodeLookupRequest(data)
		if err != nil {
			return
		}
		if again := encodeLookupRequest(obs, paths); !bytes.Equal(again, data) {
			t.Fatalf("accepted %x, which re-encodes as %x", data, again)
		}
	})
}
