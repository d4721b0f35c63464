package bloom

import (
	"crypto/sha256"
	"fmt"
	"strconv"
	"testing"
	"testing/quick"
)

// Both layouts round-trip, and the magic carries the layout: a blocked
// filter decodes as blocked and answers every key it was built with.
func TestFilterMarshalRoundTrip(t *testing.T) {
	for _, layout := range []Layout{LayoutClassic, LayoutBlocked} {
		f, err := NewLayout(1<<12, 6, layout)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			f.AddString("file" + strconv.Itoa(i))
		}
		data, err := f.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var g Filter
		if err := g.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		if !f.Equal(&g) || g.Layout() != layout {
			t.Errorf("%v: round trip changed bit vector or layout (%v)", layout, g.Layout())
		}
		if g.Count() != f.Count() {
			t.Errorf("%v: round trip count %d, want %d", layout, g.Count(), f.Count())
		}
		for i := 0; i < 500; i++ {
			if !g.ContainsString("file" + strconv.Itoa(i)) {
				t.Fatalf("%v: false negative after round trip", layout)
			}
		}
	}
}

func TestFilterMarshalRoundTripProperty(t *testing.T) {
	err := quick.Check(func(keys []string) bool {
		f, err := New(2048, 4)
		if err != nil {
			return false
		}
		for _, k := range keys {
			f.AddString(k)
		}
		data, err := f.MarshalBinary()
		if err != nil {
			return false
		}
		var g Filter
		if err := g.UnmarshalBinary(data); err != nil {
			return false
		}
		return f.Equal(&g)
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Errorf("marshal round-trip property violated: %v", err)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	var f Filter
	if err := f.UnmarshalBinary(nil); err == nil {
		t.Error("nil input accepted")
	}
	if err := f.UnmarshalBinary([]byte{1, 2, 3}); err == nil {
		t.Error("short input accepted")
	}
	// A well-formed payload under a foreign magic (0xB1F1, the retired
	// counting-filter tag) must be rejected on the magic alone.
	data, err := mustNew(t, 64, 2).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	data[0], data[1] = 0xB1, 0xF1
	if err := f.UnmarshalBinary(data); err == nil {
		t.Error("payload with foreign magic accepted as filter")
	}
}

func TestUnmarshalRejectsTruncatedBody(t *testing.T) {
	f := mustNew(t, 1024, 4)
	f.AddString("x")
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var g Filter
	if err := g.UnmarshalBinary(data[:len(data)-4]); err == nil {
		t.Error("truncated body accepted")
	}
	// Extended body must also be rejected.
	if err := g.UnmarshalBinary(append(data, 0)); err == nil {
		t.Error("oversized body accepted")
	}
}

func TestUnmarshalRejectsZeroGeometryHeader(t *testing.T) {
	data := make([]byte, headerLen)
	putHeader(data, magicFilter, 0, 0, 0)
	var f Filter
	if err := f.UnmarshalBinary(data); err == nil {
		t.Error("zero-geometry header accepted")
	}
}

// pinnedFilters are fixed filters of both layouts, each holding the same
// 200 keys.
func pinnedFilters(t *testing.T) map[Layout]*Filter {
	t.Helper()
	out := make(map[Layout]*Filter)
	for _, layout := range []Layout{LayoutClassic, LayoutBlocked} {
		f, err := NewForCapacityLayout(200, 10, layout)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			f.AddString("/pin/" + strconv.Itoa(i))
		}
		out[layout] = f
	}
	return out
}

// TestMarshalFormatPinned pins MarshalBinary's bytes for both layouts:
// snapshots on disk and replicas on the wire carry this format, so no
// encoder or decoder change may move one of its bytes.
func TestMarshalFormatPinned(t *testing.T) {
	want := map[Layout]string{
		LayoutClassic: "38918073e15d0571ebbcbdd5bb1403ba6a1bf854c6f65c82e0093f077de0b8f1",
		LayoutBlocked: "42130cce43560d666f2798f5b206d1af9e458c2337fe82c8b28b7532400340f0",
	}
	for layout, f := range pinnedFilters(t) {
		data, err := f.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want[layout] {
			t.Errorf("%v: pinned filter hashes to %s, want %s", layout, got, want[layout])
		}
	}
}

// TestUnmarshalOwnsItsBytes overwrites the input after decoding it: a
// replica installed from an RPC body must not change when the daemon reuses
// that body's buffer.
func TestUnmarshalOwnsItsBytes(t *testing.T) {
	for layout, f := range pinnedFilters(t) {
		data, err := f.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var g Filter
		if err := g.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		for i := range data {
			data[i] = 0xa5
		}
		if !g.Equal(f) || g.Count() != f.Count() || g.Layout() != layout {
			t.Errorf("%v: decoded filter changed with its input", layout)
		}
	}
}
