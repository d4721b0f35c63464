package metastore

import (
	"hash/maphash"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"testing"
	"time"

	"ghba/internal/tagtable"
)

// sameMetadata compares two records, MTime by instant.
func sameMetadata(a, b Metadata) bool {
	if !a.MTime.Equal(b.MTime) || a.MTime.IsZero() != b.MTime.IsZero() {
		return false
	}
	a.MTime, b.MTime = time.Time{}, time.Time{}
	return a == b
}

// checkStore compares s with the reference map through the public API —
// Len, Get, a Range that visits each path exactly once, Paths as the sorted
// keys — and then checks the index itself: at most 7/8 full, one cell per
// entry whose tag is the path's hash and from which find reaches it, and
// every position past the live entries zeroed, so a deleted path's bytes
// are not kept alive.
func checkStore(t *testing.T, s *Store, ref map[string]Metadata) {
	t.Helper()
	if s.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(ref))
	}
	seen := make(map[string]bool, len(ref))
	s.Range(func(md Metadata) bool {
		if seen[md.Path] {
			t.Fatalf("Range visited %q twice", md.Path)
		}
		seen[md.Path] = true
		if want, ok := ref[md.Path]; !ok || !sameMetadata(md, want) {
			t.Fatalf("Range: %+v, want %+v (present %v)", md, want, ok)
		}
		return true
	})
	if len(seen) != len(ref) {
		t.Fatalf("Range visited %d paths, want %d", len(seen), len(ref))
	}
	want := make([]string, 0, len(ref))
	for p, md := range ref {
		want = append(want, p)
		if got, ok := s.Get(p); !ok || !sameMetadata(got, md) {
			t.Fatalf("Get(%q) = (%+v, %v), want %+v", p, got, ok, md)
		}
	}
	sort.Strings(want)
	if got := s.Paths(); !slices.Equal(got, want) {
		t.Fatalf("Paths = %v, want %v", got, want)
	}

	s.mu.RLock()
	defer s.mu.RUnlock()
	if 8*s.n > 7*s.index.Size() {
		t.Fatalf("%d entries in %d cells, over 7/8 full", s.n, s.index.Size())
	}
	used := 0
	for tag, ref := range s.index.All() {
		used++
		e := s.at(ref - 1)
		if hash := uint32(maphash.String(s.seed, e.path)); tag != hash {
			t.Fatalf("the cell of entry %d tags %q %#x, its hash is %#x", ref-1, e.path, tag, hash)
		}
		if i := s.find(e.path, tag); i < 0 || s.index.Val(i) != ref {
			t.Fatalf("the cell of entry %d holds %q, find reaches slot %d", ref-1, e.path, i)
		}
	}
	if used != s.n {
		t.Fatalf("%d cells in use for %d entries", used, s.n)
	}
	for c, chunk := range s.chunks {
		if c > 0 && len(chunk) != chunkLen {
			t.Fatalf("chunk %d holds %d entries, want %d", c, len(chunk), chunkLen)
		}
		for off := range chunk {
			if p := c<<chunkShift + off; p >= s.n && chunk[off] != (entry{}) {
				t.Fatalf("position %d past the %d live entries holds %q", p, s.n, chunk[off].path)
			}
		}
	}
}

// boundary reports whether a store of n entries sits at or next to an
// index growth (the index holds 7/8 of its cells before it grows to the
// next size) or a chunk edge.
func boundary(n int) bool {
	for full := 7 * tagtable.SizeFor(1) / 8; full <= n+1; full = 7 * tagtable.SizeFor(full+1) / 8 {
		if d := n - full; d >= -1 && d <= 1 {
			return true
		}
	}
	return n <= firstChunk+1 || n%chunkLen <= 1 || n%chunkLen == chunkMask ||
		(n < chunkLen && (n&(n-1) == 0 || (n-1)&(n-2) == 0))
}

// shape is the sizes a growth changes: the index, the chunk count and
// chunk 0's length.
func shape(s *Store) [3]int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sh := [3]int{s.index.Size(), len(s.chunks)}
	if len(s.chunks) > 0 {
		sh[2] = len(s.chunks[0])
	}
	return sh
}

// TestStoreMatchesModel runs seeded random Put / PutPath / Delete / Get /
// Has / Restore sequences against a reference map. Each seed draws paths
// from a pool of a different size and favours inserts in its first half
// and deletes in its second, so the store climbs through and falls back
// across index growths and chunk edges, deletes its last entry and
// re-inserts deleted paths. The store is checked in full after every
// growth, at small sizes and every 256 steps. Inode numbers are modelled
// exactly: a fresh path gets the next one, an update keeps its own, and
// none is issued twice.
func TestStoreMatchesModel(t *testing.T) {
	for seed, pool := range []int{3, 12, 60, 700, 2_000, 5_000} {
		rng := rand.New(rand.NewSource(int64(seed + 1)))
		paths := make([]string, pool)
		for i := range paths {
			paths[i] = "/m/d" + strconv.Itoa(i%17) + "/f" + strconv.Itoa(i)
		}
		s := NewStore()
		ref := make(map[string]Metadata)
		var nextIno uint64
		issued := make(map[uint64]string)
		put := func(md Metadata) {
			if old, ok := ref[md.Path]; ok {
				md.InodeID = old.InodeID
			} else {
				nextIno++
				if prev, dup := issued[nextIno]; dup {
					t.Fatalf("seed %d: inode %d issued to %q and %q", seed, nextIno, prev, md.Path)
				}
				issued[nextIno] = md.Path
				md.InodeID = nextIno
			}
			ref[md.Path] = md
		}
		steps := 4 * pool
		if steps < 400 {
			steps = 400
		}
		for step := 0; step < steps; step++ {
			before := shape(s)
			p := paths[rng.Intn(pool)]
			grow := 60
			if step >= steps/2 {
				grow = 25
			}
			switch op := rng.Intn(100); {
			case op < grow/2:
				s.PutPath(p)
				put(Metadata{Path: p, Mode: 0o644})
			case op < grow:
				md := Metadata{Path: p, Size: rng.Uint64(), Mode: rng.Uint32(), UID: rng.Uint32(), GID: rng.Uint32(), InodeID: rng.Uint64()}
				if rng.Intn(2) == 0 {
					md.MTime = time.Unix(0, rng.Int63())
				}
				s.Put(md)
				put(md)
			case op < 85:
				_, want := ref[p]
				if got := s.Delete(p); got != want {
					t.Fatalf("seed %d step %d: Delete(%q) = %v, want %v", seed, step, p, got, want)
				}
				delete(ref, p)
			case op < 93:
				want, ok := ref[p]
				if got, has := s.Get(p); has != ok || (ok && !sameMetadata(got, want)) {
					t.Fatalf("seed %d step %d: Get(%q) = (%+v, %v), want (%+v, %v)", seed, step, p, got, has, want, ok)
				}
				if s.Has(p) != ok {
					t.Fatalf("seed %d step %d: Has(%q) = %v, want %v", seed, step, p, !ok, ok)
				}
			case op < 98:
				// Delete the most recent entry, the one at the last position.
				var last string
				s.Range(func(md Metadata) bool { last = md.Path; return true })
				if last != "" {
					if !s.Delete(last) {
						t.Fatalf("seed %d step %d: Delete of the last entry %q missed", seed, step, last)
					}
					delete(ref, last)
				}
			case op == 98:
				fresh := NewStore()
				fresh.Restore(s.Snapshot())
				s = fresh
			default:
				s.Restore(s.Snapshot())
			}
			if shape(s) != before || len(ref) <= firstChunk+1 || step%256 == 0 {
				checkStore(t, s, ref)
			}
		}
		checkStore(t, s, ref)
	}
}

// TestStoreGrowthBoundaries walks one store up through every index growth
// and chunk edge to 1,100 files, down to empty in reverse (always deleting
// the last entry), up again and down in random order (always moving one).
// Every step checks the path it touched; every size next to a boundary is
// checked in full.
func TestStoreGrowthBoundaries(t *testing.T) {
	const n = 1_100
	paths := make([]string, n)
	for i := range paths {
		paths[i] = "/g/" + strconv.Itoa(i)
	}
	s := NewStore()
	ref := make(map[string]Metadata)
	check := func(p string) {
		if _, want := ref[p]; s.Has(p) != want || s.Len() != len(ref) {
			t.Fatalf("%d files: Has(%q) = %v, Len = %d", len(ref), p, !want, s.Len())
		}
		if boundary(len(ref)) {
			checkStore(t, s, ref)
		}
	}
	fill := func() {
		for _, p := range paths {
			s.PutPath(p)
			md, _ := s.Get(p)
			ref[p] = md
			check(p)
		}
	}
	drain := func(order []string) {
		for _, p := range order {
			if !s.Delete(p) {
				t.Fatalf("Delete(%q) missed", p)
			}
			delete(ref, p)
			check(p)
		}
	}
	fill()
	reversed := slices.Clone(paths)
	slices.Reverse(reversed)
	drain(reversed)
	fill()
	shuffled := slices.Clone(paths)
	rand.New(rand.NewSource(7)).Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	drain(shuffled)
	if got, want := s.index.Size(), tagtable.SizeFor(n); got != want {
		t.Errorf("index of %d cells after growing to %d files, want %d", got, n, want)
	}
}

// TestRestoreSizesOnce pins Restore's one-shot sizing: the index and the
// chunks it builds are the ones the snapshot needs, and a repeated path in
// a hand-built snapshot keeps its last record, as a map assignment did.
func TestRestoreSizesOnce(t *testing.T) {
	for _, n := range []int{0, 1, 5, 6, 7, chunkLen - 1, chunkLen, chunkLen + 1, 3_000} {
		files := make([]Metadata, n)
		for i := range files {
			files[i] = Metadata{Path: "/r/" + strconv.Itoa(i), InodeID: uint64(i + 1)}
		}
		s := NewStore()
		s.Restore(Snapshot{NextIno: uint64(n), Files: files})
		if s.index.Size() != tagtable.SizeFor(n) {
			t.Errorf("%d files: %d cells, want %d", n, s.index.Size(), tagtable.SizeFor(n))
		}
		if want := (n + chunkMask) / chunkLen; len(s.chunks) != want {
			t.Errorf("%d files: %d chunks, want %d", n, len(s.chunks), want)
		}
		ref := make(map[string]Metadata, n)
		for _, md := range files {
			ref[md.Path] = md
		}
		checkStore(t, s, ref)
	}
	s := NewStore()
	s.Restore(Snapshot{Files: []Metadata{{Path: "/a", Size: 1, InodeID: 1}, {Path: "/a", Size: 2, InodeID: 2}}})
	checkStore(t, s, map[string]Metadata{"/a": {Path: "/a", Size: 2, InodeID: 2}})
}

// TestStoreZeroAlloc pins the hot operations as allocation-free: lookups,
// an update in place, and a delete whose re-insert lands in the space the
// delete freed.
func TestStoreZeroAlloc(t *testing.T) {
	s := NewStore()
	for i := 0; i < 1_000; i++ {
		s.PutPath("/z/" + strconv.Itoa(i))
	}
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"Has", func() {
			if !s.Has("/z/7") || s.Has("/z/absent") {
				t.Fatal("Has wrong")
			}
		}},
		{"Get", func() {
			if _, ok := s.Get("/z/7"); !ok {
				t.Fatal("Get missed")
			}
		}},
		{"PutPath present", func() { s.PutPath("/z/8") }},
		{"Delete+PutPath", func() {
			if !s.Delete("/z/9") {
				t.Fatal("Delete missed")
			}
			s.PutPath("/z/9")
		}},
	} {
		if allocs := testing.AllocsPerRun(1_000, tc.op); allocs != 0 {
			t.Errorf("%s allocates %.2f objects/op, want 0", tc.name, allocs)
		}
	}
}

// heapBytes is the live heap build's result holds: the median of three
// builds, each the live bytes the runtime marked after collecting on either
// side of it. A single reading strays by up to a large object when the
// previous build's pages are being reused; the median does not.
func heapBytes(build func() any) int64 {
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() int64 {
		runtime.GC()
		runtime.GC() // frees what the first moved into sync.Pool victims
		metrics.Read(live)
		return int64(live[0].Value.Uint64())
	}
	var runs [3]int64
	for i := range runs {
		before := read()
		v := build()
		runs[i] = read() - before
		runtime.KeepAlive(v)
	}
	slices.Sort(runs[:])
	return runs[1]
}

// TestStoreFootprint loads 1k to 100k paths into one store and into the
// map[string]record the store replaced, side by side, and requires the
// store to cost less per file at every size and at most 77 B/file at 4k,
// the benchmark's files per server. Path bytes are built beforehand and
// shared, so only the structure is counted. On amd64 with go1.24 the map
// costs 131 / 131 / 131 / 105 / 84 B/file (its tables run 44–88% full)
// and the store 70 / 67 / 70 / 67 / 67: about 57 B of entry, since chunks
// come in 1,024 entries, plus 12, 9, 10, 9 and 11 B of index.
func TestStoreFootprint(t *testing.T) {
	for _, n := range []int{1_000, 2_000, 4_000, 10_000, 100_000} {
		paths := make([]string, n)
		for i := range paths {
			paths[i] = "/fp/dir" + strconv.Itoa(i%100) + "/file" + strconv.Itoa(i)
		}
		store := heapBytes(func() any {
			s := NewStore()
			for _, p := range paths {
				s.PutPath(p)
			}
			return s
		})
		legacy := heapBytes(func() any {
			m := make(map[string]record)
			for i, p := range paths {
				m[p] = record{mode: 0o644, ino: uint64(i + 1), mtime: MTimeZero}
			}
			return m
		})
		perFile, mapPerFile := float64(store)/float64(n), float64(legacy)/float64(n)
		t.Logf("%7d files: store %5.1f B/file, map[string]record %5.1f B/file", n, perFile, mapPerFile)
		if perFile >= mapPerFile {
			t.Errorf("%d files: store %.1f B/file, not below the map's %.1f", n, perFile, mapPerFile)
		}
		if n == 4_000 && perFile > 77 {
			t.Errorf("4,000 files: store %.1f B/file, want ≤ 77", perFile)
		}
	}
}

// BenchmarkStoreHas times Has at the benchmark's 4,000 files per server,
// on present paths and on absent ones.
func BenchmarkStoreHas(b *testing.B) {
	s := NewStore()
	hit := make([]string, 4_000)
	miss := make([]string, len(hit))
	for i := range hit {
		hit[i] = "/bench/dir" + strconv.Itoa(i%64) + "/file" + strconv.Itoa(i)
		miss[i] = hit[i] + ".absent"
		s.PutPath(hit[i])
	}
	for _, tc := range []struct {
		name  string
		paths []string
		want  bool
	}{{"hit", hit, true}, {"miss", miss, false}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if s.Has(tc.paths[i%len(tc.paths)]) != tc.want {
					b.Fatal("Has wrong")
				}
			}
		})
	}
}
