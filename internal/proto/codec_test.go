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
// the vector, then one copy per non-empty path or hit list. The reader the
// decoders share lives on their stacks, so it adds nothing.
func TestDecodeAllocs(t *testing.T) {
	paths, recs, obs, hits := codecSamples()
	pathWire, recWire, obsWire := encodePaths(paths), encodeMutations(9, recs), encodeObservations(obs)
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
		{"decodeObservations", 4, func() error { _, err := decodeObservations(obsWire); return err }},
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
	pathWire, recWire, obsWire := encodePaths(paths), encodeMutations(9, recs), encodeObservations(obs)
	gotPaths, err := decodePaths(pathWire)
	if err != nil {
		t.Fatal(err)
	}
	_, gotRecs, err := decodeMutations(recWire)
	if err != nil {
		t.Fatal(err)
	}
	gotObs, err := decodeObservations(obsWire)
	if err != nil {
		t.Fatal(err)
	}
	scribble(pathWire)
	scribble(recWire)
	scribble(obsWire)
	if !reflect.DeepEqual(gotPaths, paths) {
		t.Errorf("paths changed with their frame: %q", gotPaths)
	}
	if !reflect.DeepEqual(gotRecs, recs) {
		t.Errorf("mutations changed with their frame: %q", gotRecs)
	}
	if !reflect.DeepEqual(gotObs, obs) {
		t.Errorf("observations changed with their frame: %v", gotObs)
	}
}

// FuzzObservationBatch drives the observe_batch request decoder: arbitrary
// bytes must never panic it, and since it refuses counts the bytes cannot
// carry and trailing bytes, anything it accepts must re-encode to exactly
// the bytes it was given.
func FuzzObservationBatch(f *testing.F) {
	_, _, obs, _ := codecSamples()
	two := encodeObservations(obs[:2])
	f.Add([]byte{})
	f.Add(encodeObservations(nil))              // zero count
	f.Add(two)                                  // two records, one of the empty path
	f.Add(two[:len(two)-1])                     // one byte short
	f.Add(append(two[:len(two):len(two)], 0))   // one byte long
	f.Add([]byte{0, 0, 0xff, 0xff})             // count 0xFFFF with no records behind it
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 1, 0, 2}) // a path length past the end
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeObservations(data)
		if err != nil {
			return
		}
		if again := encodeObservations(got); !bytes.Equal(again, data) {
			t.Fatalf("accepted %x, which re-encodes as %x", data, again)
		}
	})
}
