package metastore

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

func TestPutGet(t *testing.T) {
	s := NewStore()
	md := Metadata{Path: "/a/b", Size: 123, Mode: 0o755, UID: 10, GID: 20, MTime: time.Unix(1e9, 0)}
	s.Put(md)
	got, ok := s.Get("/a/b")
	if !ok {
		t.Fatal("Get after Put missed")
	}
	if got.Size != 123 || got.Mode != 0o755 || got.UID != 10 {
		t.Errorf("Get = %+v", got)
	}
	if got.InodeID == 0 {
		t.Error("inode not assigned")
	}
}

// TestRecordRoundTrip pins the in-memory entry at six words, and every
// Metadata field — a zero MTime included — comes back from Get, Snapshot
// and a restored store's Get as it went in.
func TestRecordRoundTrip(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got != 48 {
		t.Errorf("entry is %d bytes, want 48", got)
	}
	s := NewStore()
	in := []Metadata{
		{Path: "/timed", Size: 1 << 40, Mode: 0o755, UID: 10, GID: 20, MTime: time.Unix(1e9, 7)},
		{Path: "/untimed", Size: 3, Mode: 0o600, UID: 1, GID: 2},
	}
	for i, md := range in {
		s.Put(md)
		in[i].InodeID = uint64(i + 1)
	}
	check := func(via string, got Metadata) {
		t.Helper()
		want := in[0]
		if got.Path == in[1].Path {
			want = in[1]
		}
		if !got.MTime.Equal(want.MTime) || got.MTime.IsZero() != want.MTime.IsZero() {
			t.Errorf("%s %s: MTime %v, want %v", via, got.Path, got.MTime, want.MTime)
		}
		got.MTime, want.MTime = time.Time{}, time.Time{}
		if got != want {
			t.Errorf("%s: %+v, want %+v", via, got, want)
		}
	}
	for _, md := range in {
		got, ok := s.Get(md.Path)
		if !ok {
			t.Fatalf("Get(%s) missed", md.Path)
		}
		check("Get", got)
	}
	snap := s.Snapshot()
	for _, md := range snap.Files {
		check("Snapshot", md)
	}
	back := NewStore()
	back.Restore(snap)
	back.Range(func(path string) bool {
		got, _ := back.Get(path)
		check("Restore", got)
		return true
	})
}

// TestOverlongPathPanics pins the 32-bit length's limit: a path of 2³²
// bytes panics, naming the limit, instead of being stored truncated.
func TestOverlongPathPanics(t *testing.T) {
	if uint64(math.MaxInt) <= maxPathLen {
		t.Skip("a string cannot exceed the limit on this platform")
	}
	limit := maxPathLen
	if got := pathLen(int(limit)); uint64(got) != limit {
		t.Fatalf("pathLen(%d) = %d", limit, got)
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, strconv.FormatUint(limit, 10)) {
			t.Fatalf("pathLen panicked with %q, want a message naming the %d-byte limit", msg, limit)
		}
	}()
	pathLen(int(limit + 1))
}

func TestInodeStableAcrossUpdates(t *testing.T) {
	s := NewStore()
	s.Put(Metadata{Path: "/f"})
	first, _ := s.Get("/f")
	s.Put(Metadata{Path: "/f", Size: 999})
	second, _ := s.Get("/f")
	if first.InodeID != second.InodeID {
		t.Errorf("inode changed on update: %d → %d", first.InodeID, second.InodeID)
	}
	if second.Size != 999 {
		t.Error("update did not apply")
	}
}

func TestInodesUnique(t *testing.T) {
	s := NewStore()
	seen := make(map[uint64]bool)
	for i := 0; i < 100; i++ {
		p := "/f" + strconv.Itoa(i)
		s.PutPath(p)
		md, _ := s.Get(p)
		if seen[md.InodeID] {
			t.Fatalf("duplicate inode %d", md.InodeID)
		}
		seen[md.InodeID] = true
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

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s := NewStore()
	s.Put(Metadata{Path: "/a", Size: 1, Mode: 0o600, UID: 3, GID: 4, MTime: time.Unix(5, 6)})
	s.Put(Metadata{Path: "/b", Size: 2})
	s.Delete("/a") // counter stays advanced past the deleted inode

	snap := s.Snapshot()
	if snap.NextIno != 2 {
		t.Fatalf("NextIno = %d, want 2", snap.NextIno)
	}
	if len(snap.Files) != 1 || snap.Files[0].Path != "/b" {
		t.Fatalf("Files = %+v", snap.Files)
	}

	fresh := NewStore()
	fresh.Restore(snap)
	got, ok := fresh.Get("/b")
	if !ok || got.Size != 2 || got.InodeID != 2 {
		t.Fatalf("restored /b = (%+v, %v)", got, ok)
	}
	if fresh.Len() != 1 {
		t.Fatalf("Len = %d", fresh.Len())
	}
}

func TestSnapshotFilesSorted(t *testing.T) {
	s := NewStore()
	for _, p := range []string{"/z", "/m", "/a"} {
		s.PutPath(p)
	}
	snap := s.Snapshot()
	for i := 1; i < len(snap.Files); i++ {
		if snap.Files[i-1].Path >= snap.Files[i].Path {
			t.Fatalf("snapshot files not sorted: %v before %v", snap.Files[i-1].Path, snap.Files[i].Path)
		}
	}
}

// TestPutAfterRestoreNeverReusesInode is the property the snapshot format
// exists to protect: across an arbitrary sequence of puts, deletes, a
// snapshot/restore cycle, and more puts, no inode number is ever issued
// twice. A reused inode would let a recovered daemon alias two files.
func TestPutAfterRestoreNeverReusesInode(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		s := NewStore()
		issued := make(map[uint64]string) // inode → path it was issued for
		note := func(p string) {
			md, _ := s.Get(p)
			if prev, ok := issued[md.InodeID]; ok && prev != p {
				t.Fatalf("trial %d: inode %d issued to %q and %q", trial, md.InodeID, prev, p)
			}
			issued[md.InodeID] = p
		}
		n := 0
		newPath := func() string { n++; return "/t/" + strconv.Itoa(n) }
		live := []string{}
		for step := 0; step < 200; step++ {
			switch {
			case len(live) > 0 && rng.Intn(3) == 0:
				i := rng.Intn(len(live))
				s.Delete(live[i])
				live = append(live[:i], live[i+1:]...)
			default:
				p := newPath()
				s.PutPath(p)
				note(p)
				live = append(live, p)
			}
			if rng.Intn(20) == 0 {
				fresh := NewStore()
				fresh.Restore(s.Snapshot())
				s = fresh
			}
		}
		// Final burst of puts after the last restore.
		for i := 0; i < 50; i++ {
			p := newPath()
			s.PutPath(p)
			note(p)
		}
	}
}

// TestRestoreClampsCounter pins the defensive bump: a snapshot whose
// counter lags its own records (hand-built or from a broken writer) must
// not make Put reissue a live inode.
func TestRestoreClampsCounter(t *testing.T) {
	s := NewStore()
	s.Restore(Snapshot{NextIno: 1, Files: []Metadata{{Path: "/big", InodeID: 90}}})
	s.PutPath("/next")
	md, _ := s.Get("/next")
	if md.InodeID <= 90 {
		t.Fatalf("inode %d not clamped above restored max 90", md.InodeID)
	}
}
