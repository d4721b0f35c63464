package bloom

import (
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
