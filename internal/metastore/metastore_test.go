package metastore

import (
	"slices"
	"strconv"
	"sync"
	"testing"
)

func TestPutGet(t *testing.T) {
	s := NewStore()
	s.PutPath("/a/b")
	s.PutPath("/a/b")
	if !s.Has("/a/b") || s.Has("/a") {
		t.Error("Has after PutPath inconsistent")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d after putting one path twice, want 1", s.Len())
	}
}

func TestHasDeleteLen(t *testing.T) {
	s := NewStore()
	s.PutPath("/x")
	if !s.Has("/x") || s.Has("/y") {
		t.Error("Has inconsistent")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
	if !s.Delete("/x") {
		t.Error("Delete of present path returned false")
	}
	if s.Delete("/x") {
		t.Error("Delete of absent path returned true")
	}
	if s.Len() != 0 {
		t.Errorf("Len = %d after delete, want 0", s.Len())
	}
}

func TestPathsSorted(t *testing.T) {
	s := NewStore()
	for _, p := range []string{"/c", "/a", "/b"} {
		s.PutPath(p)
	}
	got := s.Paths()
	want := []string{"/a", "/b", "/c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Paths = %v, want %v", got, want)
		}
	}
}

func TestRangeEarlyStop(t *testing.T) {
	s := NewStore()
	for i := 0; i < 10; i++ {
		s.PutPath("/f" + strconv.Itoa(i))
	}
	visits := 0
	s.Range(func(string) bool {
		visits++
		return visits < 3
	})
	if visits != 3 {
		t.Errorf("Range visited %d, want 3", visits)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				p := "/w" + strconv.Itoa(w) + "/f" + strconv.Itoa(i)
				s.PutPath(p)
				if !s.Has(p) {
					t.Errorf("lost %s", p)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 2000 {
		t.Errorf("Len = %d, want 2000", s.Len())
	}
}

// TestSnapshotRestoreRoundTrip: a fresh store restored from another's
// Paths, the snapshot's file list, holds the same paths and no deleted one.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s := NewStore()
	for _, p := range []string{"/a", "/b", "/c"} {
		s.PutPath(p)
	}
	s.Delete("/a")

	fresh := NewStore()
	fresh.Restore(s.Paths())
	if got := fresh.Paths(); !slices.Equal(got, []string{"/b", "/c"}) {
		t.Fatalf("restored Paths = %v, want [/b /c]", got)
	}
	if fresh.Has("/a") || !fresh.Has("/b") || fresh.Len() != 2 {
		t.Fatalf("restored store: Has(/a) %v, Has(/b) %v, Len %d", fresh.Has("/a"), fresh.Has("/b"), fresh.Len())
	}
}

// TestSnapshotFilesSorted: Paths, the list a snapshot writes, is strictly
// ascending across chunks after deletes have moved paths out of insertion
// order.
func TestSnapshotFilesSorted(t *testing.T) {
	s := NewStore()
	for i := 3 * chunkLen; i > 0; i-- {
		s.PutPath("/z/" + strconv.Itoa(i))
	}
	for i := 1; i <= 3*chunkLen; i += 7 {
		s.Delete("/z/" + strconv.Itoa(i))
	}
	files := s.Paths()
	if len(files) != s.Len() {
		t.Fatalf("Paths holds %d files, Len %d", len(files), s.Len())
	}
	for i := 1; i < len(files); i++ {
		if files[i-1] >= files[i] {
			t.Fatalf("snapshot files not sorted: %v before %v", files[i-1], files[i])
		}
	}
}
