package bloomarray

import (
	"strconv"
	"testing"
)

func TestNewLRUArrayValidation(t *testing.T) {
	if _, err := NewLRUArray(0, 8); err == nil {
		t.Error("capacity 0 accepted")
	}
	if _, err := NewLRUArray(10, 0); err == nil {
		t.Error("ratio 0 accepted")
	}
}

func TestLRUObserveQuery(t *testing.T) {
	l, err := NewLRUArray(100, 16)
	if err != nil {
		t.Fatal(err)
	}
	l.ObserveDigest(digestOf("/a/file1"), 3)
	l.ObserveDigest(digestOf("/a/file2"), 5)
	r := l.QueryDigest(digestOf("/a/file1"), nil)
	if id, ok := r.Unique(); !ok || id != 3 {
		t.Errorf("Query(file1) = %v, want unique 3", r.Hits)
	}
	if !l.QueryDigest(digestOf("/a/unseen"), nil).Miss() {
		t.Error("unseen key hit the LRU array")
	}
	if l.Entries() != 2 {
		t.Errorf("Entries = %d, want 2", l.Entries())
	}
}

func TestLRUAgingKeepsRecentDropsOld(t *testing.T) {
	const capacity = 50
	l, err := NewLRUArray(capacity, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Fill more than two generations for MDS 1.
	for i := 0; i < 3*capacity; i++ {
		l.ObserveDigest(digestOf("old"+strconv.Itoa(i)), 1)
	}
	// The most recent insertion must always be present.
	last := "old" + strconv.Itoa(3*capacity-1)
	if l.QueryDigest(digestOf(last), nil).Miss() {
		t.Error("most recent observation evicted")
	}
	// The very first insertions (older than two generations) must be gone,
	// modulo Bloom false positives; check a batch and require most missing.
	evicted := 0
	for i := 0; i < capacity; i++ {
		if l.QueryDigest(digestOf("old"+strconv.Itoa(i)), nil).Miss() {
			evicted++
		}
	}
	if evicted < capacity*9/10 {
		t.Errorf("only %d/%d oldest observations evicted", evicted, capacity)
	}
}

func TestLRUSlidingWindowRetainsPreviousGeneration(t *testing.T) {
	const capacity = 40
	l, err := NewLRUArray(capacity, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < capacity+5; i++ { // rotate once, 5 into new generation
		l.ObserveDigest(digestOf("w"+strconv.Itoa(i)), 2)
	}
	// Keys from the immediately previous generation are still queryable.
	for i := capacity - 5; i < capacity; i++ {
		if l.QueryDigest(digestOf("w"+strconv.Itoa(i)), nil).Miss() {
			t.Errorf("previous-generation key w%d already evicted", i)
		}
	}
}

func TestLRUForget(t *testing.T) {
	l, err := NewLRUArray(10, 16)
	if err != nil {
		t.Fatal(err)
	}
	l.ObserveDigest(digestOf("f"), 4)
	l.Forget(4)
	if !l.QueryDigest(digestOf("f"), nil).Miss() {
		t.Error("Forget left entry queryable")
	}
	if l.Entries() != 0 {
		t.Errorf("Entries = %d after Forget, want 0", l.Entries())
	}
}

func TestLRUMultipleHitsAcrossMDSs(t *testing.T) {
	l, err := NewLRUArray(10, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Same file observed at two different homes (stale + fresh): both hit,
	// which must escalate rather than answer.
	l.ObserveDigest(digestOf("moved"), 1)
	l.ObserveDigest(digestOf("moved"), 2)
	r := l.QueryDigest(digestOf("moved"), nil)
	if !r.Multiple() {
		t.Errorf("expected multiple hits, got %v", r.Hits)
	}
}

func TestLRUSizeBytesGrowsWithEntries(t *testing.T) {
	l, err := NewLRUArray(100, 8)
	if err != nil {
		t.Fatal(err)
	}
	if l.SizeBytes() != 0 {
		t.Error("empty LRU array non-zero size")
	}
	l.ObserveDigest(digestOf("x"), 1)
	s1 := l.SizeBytes()
	l.ObserveDigest(digestOf("y"), 2)
	if l.SizeBytes() <= s1 {
		t.Error("size did not grow with second MDS entry")
	}
}
