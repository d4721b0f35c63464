package bloomarray

import (
	"testing"

	"ghba/internal/bloom"
)

// digestOf hashes a string key for the arrays' digest-form probes.
func digestOf(key string) *bloom.Digest {
	d := bloom.NewDigestString(key)
	return &d
}

func filterWith(t *testing.T, keys ...string) *bloom.Filter {
	t.Helper()
	f, err := bloom.NewForCapacity(1024, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		f.AddString(k)
	}
	return f
}

func TestResultUnique(t *testing.T) {
	// On miss and multi-hit the ID must be -1, never a valid MDS ID, so a
	// caller that drops the bool cannot silently route to MDS 0.
	if id, ok := (Result{}).Unique(); ok || id != -1 {
		t.Errorf("empty result Unique = (%d, %v), want (-1, false)", id, ok)
	}
	id, ok := (Result{Hits: []int{7}}).Unique()
	if !ok || id != 7 {
		t.Errorf("Unique = (%d, %v), want (7, true)", id, ok)
	}
	if id, ok := (Result{Hits: []int{1, 2}}).Unique(); ok || id != -1 {
		t.Errorf("two-hit result Unique = (%d, %v), want (-1, false)", id, ok)
	}
}

func TestInsertSorted(t *testing.T) {
	cases := []struct {
		in   []int
		v    int
		want []int
	}{
		{nil, 5, []int{5}},
		{[]int{1, 3}, 2, []int{1, 2, 3}},
		{[]int{1, 3}, 0, []int{0, 1, 3}},
		{[]int{1, 3}, 4, []int{1, 3, 4}},
		{[]int{1, 3}, 3, []int{1, 3}}, // dedup
	}
	for _, c := range cases {
		// Into a slice with room to spare, the insert allocates nothing.
		buf := make([]int, 0, len(c.in)+1)
		if allocs := testing.AllocsPerRun(100, func() {
			buf = InsertSorted(append(buf[:0], c.in...), c.v)
		}); allocs != 0 {
			t.Errorf("InsertSorted(%v, %d) allocates %.2f objects/op with capacity, want 0", c.in, c.v, allocs)
		}
		got := InsertSorted(append([]int(nil), c.in...), c.v)
		if len(got) != len(c.want) {
			t.Errorf("InsertSorted(%v, %d) = %v, want %v", c.in, c.v, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("InsertSorted(%v, %d) = %v, want %v", c.in, c.v, got, c.want)
				break
			}
		}
	}
}

func TestResultMissMultiple(t *testing.T) {
	if !(Result{}).Miss() {
		t.Error("empty result not a miss")
	}
	if (Result{Hits: []int{1}}).Miss() || (Result{Hits: []int{1}}).Multiple() {
		t.Error("single hit misclassified")
	}
	if !(Result{Hits: []int{1, 2}}).Multiple() {
		t.Error("two hits not multiple")
	}
}

func TestArrayPutGetRemove(t *testing.T) {
	a := NewArray()
	f := filterWith(t, "x")
	a.Put(3, f)
	if !a.Has(3) || a.Get(3) != f || a.Len() != 1 {
		t.Fatal("Put/Get/Has inconsistent")
	}
	if got := a.Remove(3); got != f {
		t.Error("Remove returned wrong filter")
	}
	if a.Has(3) || a.Len() != 0 {
		t.Error("Remove did not delete entry")
	}
	if a.Remove(99) != nil {
		t.Error("Remove of absent ID returned non-nil")
	}
}

func TestArrayQueryUniqueHit(t *testing.T) {
	a := NewArray()
	a.Put(1, filterWith(t, "/d/alpha"))
	a.Put(2, filterWith(t, "/d/beta"))
	a.Put(3, filterWith(t, "/d/gamma"))
	r := a.QueryDigest(digestOf("/d/beta"), nil)
	id, ok := r.Unique()
	if !ok || id != 2 {
		t.Errorf("Query(/d/beta) = %v, want unique hit on 2", r.Hits)
	}
	if !a.QueryDigest(digestOf("/d/nothere"), nil).Miss() {
		t.Error("absent key did not miss")
	}
}

func TestArrayQueryMultipleHits(t *testing.T) {
	a := NewArray()
	a.Put(1, filterWith(t, "shared"))
	a.Put(2, filterWith(t, "shared"))
	r := a.QueryDigest(digestOf("shared"), nil)
	if !r.Multiple() {
		t.Errorf("Query(shared) = %v, want multiple", r.Hits)
	}
	if len(r.Hits) != 2 || r.Hits[0] != 1 || r.Hits[1] != 2 {
		t.Errorf("hits = %v, want [1 2] ascending", r.Hits)
	}
}

func TestArrayIDsSorted(t *testing.T) {
	a := NewArray()
	for _, id := range []int{9, 2, 5, 1} {
		a.Put(id, filterWith(t))
	}
	ids := a.IDs()
	want := []int{1, 2, 5, 9}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", ids, want)
		}
	}
}

func TestArraySizeBytes(t *testing.T) {
	a := NewArray()
	if a.SizeBytes() != 0 {
		t.Error("empty array has non-zero size")
	}
	f := filterWith(t)
	a.Put(1, f)
	a.Put(2, filterWith(t))
	if a.SizeBytes() != 2*f.SizeBytes() {
		t.Errorf("SizeBytes = %d, want %d", a.SizeBytes(), 2*f.SizeBytes())
	}
}
