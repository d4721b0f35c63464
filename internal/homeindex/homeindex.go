// Package homeindex is the ground truth of which metadata server homes each
// file, kept without the paths. Both engines use it: the simulator's
// core.Cluster and the TCP coordinator's proto.Cluster.
//
// Every path is already held by its home's metadata store, so the index
// stores one 8-byte cell per file — a 32-bit tag of the path's hash and the
// home's ID — and a tag match is only a candidate until the home confirms
// that it holds the path. Confirmation is the caller's: a func(home, path)
// that asks the home's store (core through its node map, proto through the
// daemon's store in process). Tags may collide: a probe continues past an
// unconfirmed match, and two same-tag paths at one home are interchangeable
// cells.
//
// The cells are striped over Shards locks by the path's hash, so mutations
// on different paths never serialize on one lock. Whole-index scans (Scrub,
// Len, Check) go shard by shard; callers that need them atomic with respect
// to mutations exclude the mutators with a lock of their own.
package homeindex

import (
	"fmt"
	"slices"
	"sync"
)

// Shards is the number of locks the index is striped over. A power of two
// keeps the shard selection a mask; 64 shards hold contention near zero for
// any worker count the engines see.
const Shards = 64

// minCells is the smallest shard table; it holds 6 cells at 3/4 full.
const minCells = 8

// Index is the sharded file → home index. The zero value is not usable;
// call New.
type Index struct {
	shards [Shards]shard
	// tagMask narrows every tag. It is all ones; tests narrow it with
	// SetTagBits so that tag collisions happen constantly.
	tagMask uint32
}

// shard is one linear-probed table, a power of two in size and at most 3/4
// full. A cell's slot is its tag's low bits, so growth never rehashes a
// path, and a removal shifts the rest of its probe run back rather than
// leaving a tombstone.
type shard struct {
	mu    sync.RWMutex
	cells []cell
	n     int
}

// cell is one file: its path's tag and its home's ID plus one, so the zero
// cell is empty.
type cell struct {
	tag  uint32
	home int32
}

func (c cell) id() int { return int(c.home) - 1 }

// New returns an empty index.
func New() *Index {
	h := &Index{tagMask: ^uint32(0)}
	for i := range h.shards {
		h.shards[i].cells = make([]cell, minCells)
	}
	return h
}

// SetTagBits narrows every tag to its low bits, so that distinct paths share
// tags constantly. It exists for tests that drive the collision paths, and
// must be called before the first insert.
func (h *Index) SetTagBits(bits uint) {
	h.tagMask = 1<<bits - 1
}

// Locate returns the shard number owning path and path's tag, both from one
// deterministic hash: FNV-1a over the path bytes, mixed by MurmurHash3's
// 64-bit finalizer so the shard (low bits) and the tag (high bits) are
// independent. Callers that keep per-path state of their own beside the
// index stripe it by the same shard number.
func (h *Index) Locate(path string) (int, uint32) {
	const offset, prime = uint64(14695981039346656037), uint64(1099511628211)
	x := offset
	for i := 0; i < len(path); i++ {
		x ^= uint64(path[i])
		x *= prime
	}
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return int(x & (Shards - 1)), uint32(x>>32) & h.tagMask
}

// locate is Locate returning the shard itself.
func (h *Index) locate(path string) (*shard, uint32) {
	i, tag := h.Locate(path)
	return &h.shards[i], tag
}

// findLocked returns the cell of tag's probe run whose home confirms that it
// holds path. Caller holds s.mu.
func (s *shard) findLocked(path string, tag uint32, confirm func(home int, path string) bool) (int, bool) {
	mask := len(s.cells) - 1
	for i := int(tag) & mask; s.cells[i].home != 0; i = (i + 1) & mask {
		if c := s.cells[i]; c.tag == tag && confirm(c.id(), path) {
			return i, true
		}
	}
	return 0, false
}

// cellOfLocked returns a cell holding exactly (tag, home), unconfirmed.
// Caller holds s.mu.
func (s *shard) cellOfLocked(tag uint32, home int) (int, bool) {
	mask := len(s.cells) - 1
	for i := int(tag) & mask; s.cells[i].home != 0; i = (i + 1) & mask {
		if c := s.cells[i]; c.tag == tag && c.id() == home {
			return i, true
		}
	}
	return 0, false
}

// vacantLocked returns the first empty cell of tag's probe run. Caller holds
// s.mu.
func (s *shard) vacantLocked(tag uint32) int {
	mask := len(s.cells) - 1
	i := int(tag) & mask
	for s.cells[i].home != 0 {
		i = (i + 1) & mask
	}
	return i
}

// cellsFor is the table size that holds n cells at most 3/4 full.
func cellsFor(n int) int {
	c := minCells
	for c/4*3 < n {
		c <<= 1
	}
	return c
}

// insertLocked adds a cell for tag at home, growing the table first when it
// would pass 3/4 full. Caller holds s.mu.
func (s *shard) insertLocked(tag uint32, home int) {
	if want := cellsFor(s.n + 1); want > len(s.cells) {
		s.resizeLocked(want, -1)
	}
	s.cells[s.vacantLocked(tag)] = cell{tag: tag, home: int32(home + 1)}
	s.n++
}

// resizeLocked rebuilds the table at size cells, dropping every cell of home
// drop (-1 keeps them all), and returns how many it dropped. Caller holds
// s.mu.
func (s *shard) resizeLocked(size, drop int) int {
	old := s.cells
	s.cells = make([]cell, size)
	kept := 0
	for _, c := range old {
		if c.home != 0 && c.id() != drop {
			s.cells[s.vacantLocked(c.tag)] = c
			kept++
		}
	}
	dropped := s.n - kept
	s.n = kept
	return dropped
}

// unindexLocked empties cell i and shifts back the rest of its probe run, so
// every cell stays reachable from its slot without tombstones. Caller holds
// s.mu.
func (s *shard) unindexLocked(i int) {
	mask := len(s.cells) - 1
	for j := (i + 1) & mask; s.cells[j].home != 0; j = (j + 1) & mask {
		// The cell at j may fill the hole at i unless its slot lies
		// cyclically in (i, j].
		if slot := int(s.cells[j].tag) & mask; (j-slot)&mask >= (j-i)&mask {
			s.cells[i] = s.cells[j]
			i = j
		}
	}
	s.cells[i] = cell{}
	s.n--
}

// Get returns the home of path and whether it exists: the first cell of the
// path's tag whose home confirms it.
func (h *Index) Get(path string, confirm func(home int, path string) bool) (int, bool) {
	s, tag := h.locate(path)
	s.mu.RLock()
	defer s.mu.RUnlock()
	i, ok := s.findLocked(path, tag, confirm)
	if !ok {
		return -1, false
	}
	return s.cells[i].id(), true
}

// PutIfAbsentThen atomically claims path for home and, on success, runs
// then() while still holding the shard lock. The callback is where the
// caller adds the file to the home's store: keeping it inside the critical
// section makes (cell, store) move together, so a concurrent delete of the
// same path — which takes the same shard lock through RemoveThen — can never
// observe the cell without the store entry or vice versa. When a home
// confirms the path it returns that home and false without calling then.
// This is the linearization point of a create: two workers racing on the
// same path cannot both claim it.
func (h *Index) PutIfAbsentThen(path string, home int, confirm func(home int, path string) bool, then func()) (int, bool) {
	s, tag := h.locate(path)
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.findLocked(path, tag, confirm); ok {
		return s.cells[i].id(), false
	}
	s.insertLocked(tag, home)
	then()
	return home, true
}

// RemoveThen runs then(home) for the home that confirms path and removes its
// cell, under the shard lock, returning the home it had and whether the path
// existed. This is the linearization point of a delete; the callback is
// where the caller unlinks the file from its home's store.
func (h *Index) RemoveThen(path string, confirm func(home int, path string) bool, then func(home int)) (int, bool) {
	s, tag := h.locate(path)
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.findLocked(path, tag, confirm)
	if !ok {
		return -1, false
	}
	home := s.cells[i].id()
	then(home)
	s.unindexLocked(i)
	return home, true
}

// Rehome moves path from home from to home to in one shard-locked step: the
// first cell of from that confirm accepts — the departing server has left
// the caller's membership, so confirm asks it directly — is re-pointed to to
// after then() has added the file to to's store. Reports whether from's cell
// was found.
func (h *Index) Rehome(path string, from, to int, confirm func(home int, path string) bool, then func()) bool {
	s, tag := h.locate(path)
	s.mu.Lock()
	defer s.mu.Unlock()
	mask := len(s.cells) - 1
	for i := int(tag) & mask; s.cells[i].home != 0; i = (i + 1) & mask {
		if c := s.cells[i]; c.tag == tag && c.id() == from && confirm(from, path) {
			then()
			s.cells[i].home = int32(to + 1)
			return true
		}
	}
	return false
}

// Insert adds a cell for path at home, unconditionally: the caller has
// already learned from home itself that it now stores path.
func (h *Index) Insert(path string, home int) {
	s, tag := h.locate(path)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.insertLocked(tag, home)
}

// Remove drops one cell of path's tag at home, unconfirmed — the caller has
// learned from home itself that it no longer stores path, and same-tag
// cells at one home are interchangeable. Reports whether there was one.
func (h *Index) Remove(path string, home int) bool {
	s, tag := h.locate(path)
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.cellOfLocked(tag, home)
	if ok {
		s.unindexLocked(i)
	}
	return ok
}

// Candidates appends to buf, once each and in probe order, the homes of the
// cells sharing path's tag: the servers that might store path, before any of
// them is asked. Almost always it appends nothing or the one true home.
func (h *Index) Candidates(path string, buf []int) []int {
	s, tag := h.locate(path)
	s.mu.RLock()
	defer s.mu.RUnlock()
	mask := len(s.cells) - 1
	start := len(buf)
	for i := int(tag) & mask; s.cells[i].home != 0; i = (i + 1) & mask {
		if c := s.cells[i]; c.tag == tag && !slices.Contains(buf[start:], c.id()) {
			buf = append(buf, c.id())
		}
	}
	return buf
}

// Len returns the total number of files across all shards.
func (h *Index) Len() int {
	total := 0
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.RLock()
		total += s.n
		s.mu.RUnlock()
	}
	return total
}

// Scrub removes every cell homed at home, returning how many were dropped:
// the files of a failed server leave the namespace. Each shard is rebuilt
// without them.
func (h *Index) Scrub(home int) int {
	dropped := 0
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.Lock()
		dropped += s.resizeLocked(len(s.cells), home)
		s.mu.Unlock()
	}
	return dropped
}

// Check verifies the index against the servers' stores exactly: every path
// that stored(id) lists for a server in ids resolves through the index to
// that server, and per shard the cells of each (tag, home) are exactly as
// many as the stored paths of that (tag, home). A file moved between stores
// behind the index's back, a path stored twice, a cell of a server outside
// ids and a cell no stored path accounts for all fail it. The caller
// excludes every mutation.
func (h *Index) Check(ids []int, stored func(id int) []string, confirm func(home int, path string) bool) error {
	type key struct {
		s    *shard
		tag  uint32
		home int32
	}
	want := make(map[key]int)
	total := 0
	for _, id := range ids {
		for _, path := range stored(id) {
			if home, ok := h.Get(path, confirm); !ok || home != id {
				return fmt.Errorf("MDS %d stores %s, which the home index resolves to %d", id, path, home)
			}
			s, tag := h.locate(path)
			want[key{s, tag, int32(id + 1)}]++
			total++
		}
	}
	cells := 0
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.RLock()
		for _, c := range s.cells {
			if c.home == 0 {
				continue
			}
			k := key{s, c.tag, c.home}
			if want[k] == 0 {
				s.mu.RUnlock()
				return fmt.Errorf("home shard %d holds a cell (tag %#x, MDS %d) no stored path accounts for", i, c.tag, c.id())
			}
			want[k]--
			cells++
		}
		s.mu.RUnlock()
	}
	// Every cell consumed one stored path of its (tag, home); equal totals
	// leave none unaccounted for.
	if cells != total {
		return fmt.Errorf("the home index holds %d cells, the servers store %d files", cells, total)
	}
	return nil
}
