package bloomarray

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"ghba/internal/bloom"
)

// TestArrayQueryDigestEquivalence is the array-level property test: for
// random replica sets and random keys, QueryDigest with a reused buffer must
// return exactly the hits a fresh digest and a nil buffer do, in the same
// (ascending) order.
func TestArrayQueryDigestEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		a := NewArray()
		replicas := 1 + rng.Intn(24)
		var paths []string
		for r := 0; r < replicas; r++ {
			f, err := bloom.NewForCapacity(256, 16)
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < 50; j++ {
				p := fmt.Sprintf("/t%d/r%d/f%d", trial, r, j)
				f.AddString(p)
				paths = append(paths, p)
			}
			a.Put(rng.Intn(1000), f) // random, possibly colliding IDs
		}
		buf := make([]int, 0, 4)
		for i := 0; i < 400; i++ {
			p := paths[rng.Intn(len(paths))]
			if i%5 == 0 {
				p = "/absent/" + strconv.Itoa(i)
			}
			want := a.QueryDigest(digestOf(p), nil)
			d := bloom.NewDigestString(p)
			got := a.QueryDigest(&d, buf)
			buf = got.Hits
			if !slices.Equal(got.Hits, want.Hits) {
				t.Fatalf("trial %d path %s: QueryDigest=%v Query=%v", trial, p, got.Hits, want.Hits)
			}
			if !slices.IsSorted(got.Hits) {
				t.Fatalf("trial %d path %s: hits not ascending: %v", trial, p, got.Hits)
			}
		}
	}
}

// TestLRUQueryDigestEquivalence checks the LRU array the same way, across
// generation rotations driven through the digest-based Observe.
func TestLRUQueryDigestEquivalence(t *testing.T) {
	l, err := NewLRUArray(32, 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	var paths []string
	for i := 0; i < 400; i++ {
		p := "/lru/f" + strconv.Itoa(i)
		paths = append(paths, p)
		d := bloom.NewDigestString(p)
		l.ObserveDigest(&d, rng.Intn(8))
	}
	buf := make([]int, 0, 4)
	for i := 0; i < 600; i++ {
		p := paths[rng.Intn(len(paths))]
		if i%4 == 0 {
			p = "/lru/absent" + strconv.Itoa(i)
		}
		want := l.QueryDigest(digestOf(p), nil)
		d := bloom.NewDigestString(p)
		got := l.QueryDigest(&d, buf)
		buf = got.Hits
		if !slices.Equal(got.Hits, want.Hits) {
			t.Fatalf("path %s: QueryDigest=%v Query=%v", p, got.Hits, want.Hits)
		}
	}
}

// TestObserveDigestMatchesObserve checks that observing through a string
// digest leaves the array in exactly the state the byte-key digest would:
// same hits for every key, same rotation points.
func TestObserveDigestMatchesObserve(t *testing.T) {
	byKey, err := NewLRUArray(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	byDigest, err := NewLRUArray(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 300; i++ {
		p := "/obs/f" + strconv.Itoa(rng.Intn(100))
		home := rng.Intn(5)
		dk := bloom.NewDigest([]byte(p))
		byKey.ObserveDigest(&dk, home)
		d := bloom.NewDigestString(p)
		byDigest.ObserveDigest(&d, home)
	}
	for i := 0; i < 100; i++ {
		p := "/obs/f" + strconv.Itoa(i)
		a, b := byKey.QueryDigest(digestOf(p), nil), byDigest.QueryDigest(digestOf(p), nil)
		if !slices.Equal(a.Hits, b.Hits) {
			t.Fatalf("path %s: key-observed=%v digest-observed=%v", p, a.Hits, b.Hits)
		}
	}
}

// TestArrayQueryDigestZeroAlloc pins the allocation contract of the segment
// array probe: with a reused buffer, a 16-replica query allocates nothing.
func TestArrayQueryDigestZeroAlloc(t *testing.T) {
	a := NewArray()
	for r := 0; r < 16; r++ {
		f, err := bloom.NewForCapacity(1_024, 16)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 100; j++ {
			f.AddString(fmt.Sprintf("/za/r%d/f%d", r, j))
		}
		a.Put(r, f)
	}
	d := bloom.NewDigestString("/za/r7/f42")
	buf := make([]int, 0, 16)
	if allocs := testing.AllocsPerRun(1_000, func() {
		r := a.QueryDigest(&d, buf)
		buf = r.Hits
	}); allocs != 0 {
		t.Errorf("QueryDigest allocates %.1f objects/op, want 0", allocs)
	}
}

// TestArraySliceStorage exercises the sorted-slice mutations around the
// query path: interleaved Put/Remove keeps IDs ordered and queries exact.
func TestArraySliceStorage(t *testing.T) {
	a := NewArray()
	live := map[int]bool{}
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 500; i++ {
		id := rng.Intn(64)
		if live[id] && rng.Intn(2) == 0 {
			if a.Remove(id) == nil {
				t.Fatalf("Remove(%d) of live replica returned nil", id)
			}
			delete(live, id)
			continue
		}
		f, err := bloom.NewForCapacity(64, 8)
		if err != nil {
			t.Fatal(err)
		}
		f.AddString("/slice/" + strconv.Itoa(id))
		a.Put(id, f)
		live[id] = true
	}
	if !slices.IsSorted(a.IDs()) {
		t.Fatalf("IDs not sorted: %v", a.IDs())
	}
	if a.Len() != len(live) {
		t.Fatalf("Len=%d, want %d", a.Len(), len(live))
	}
	for id := range live {
		r := a.QueryDigest(digestOf("/slice/"+strconv.Itoa(id)), nil)
		if !slices.Contains(r.Hits, id) {
			t.Errorf("replica %d missing from its own query: %v", id, r.Hits)
		}
	}
}
