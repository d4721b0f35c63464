package core

import (
	"fmt"
	"sync"

	"ghba/internal/mds"
)

// homeShardCount is the number of locks the ground-truth file→home index is
// striped over. A power of two keeps the shard selection a mask; 64 shards
// hold contention near zero for any worker count this simulator will see.
const homeShardCount = 64

// minHomeCells is the smallest shard table; it holds 6 cells at 3/4 full.
const minHomeCells = 8

// homeShards is the ground truth of which MDS homes each file, kept without
// the paths: every path is already held by its home's metadata store, so
// the index stores one 8-byte cell per file — a 32-bit tag of the path's
// hash and the home's ID — and a tag match is only a candidate until that
// home's store confirms it holds the path. Confirmation goes through the
// node map the caller navigates by (an epoch's on the lock-free L4 walk,
// c.nodes under c.mu everywhere else); a home missing from that map does
// not confirm. Tags may collide: a probe continues past an unconfirmed
// match, and two same-tag paths at one home are interchangeable cells.
//
// Creates, deletes and L4 reads from concurrent workers touch only the
// shard their path hashes to, so mutations on different paths never
// serialize on one lock. Reconfiguration-level scans (scrub, re-home) still
// go shard by shard; they run under the cluster-exclusive lock, which keeps
// them atomic with respect to the mutating read-lock holders.
type homeShards struct {
	shards [homeShardCount]homeShard
	// tagMask narrows every tag. It is all ones; tests narrow it to a few
	// bits so that tag collisions happen constantly.
	tagMask uint32
}

// homeShard is one linear-probed table, a power of two in size and at most
// 3/4 full. A cell's slot is its tag's low bits, so growth never rehashes a
// path, and a removal shifts the rest of its probe run back rather than
// leaving a tombstone.
type homeShard struct {
	mu    sync.RWMutex
	cells []homeCell
	n     int
}

// homeCell is one file: its path's tag and its home's MDS ID plus one, so
// the zero cell is empty.
type homeCell struct {
	tag  uint32
	home int32
}

func (c homeCell) id() int { return int(c.home) - 1 }

func newHomeShards() *homeShards {
	h := &homeShards{tagMask: ^uint32(0)}
	for i := range h.shards {
		h.shards[i].cells = make([]homeCell, minHomeCells)
	}
	return h
}

// locate returns the shard owning path and path's tag, both from one
// deterministic hash: FNV-1a over the path bytes, mixed by MurmurHash3's
// 64-bit finalizer so the shard (low bits) and the tag (high bits) are
// independent.
func (h *homeShards) locate(path string) (*homeShard, uint32) {
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
	return &h.shards[x&(homeShardCount-1)], uint32(x>>32) & h.tagMask
}

// find returns the cell of tag's probe run whose home, looked up in nodes,
// holds path. Caller holds s.mu.
func (s *homeShard) find(path string, tag uint32, nodes map[int]*mds.Node) (int, bool) {
	mask := len(s.cells) - 1
	for i := int(tag) & mask; s.cells[i].home != 0; i = (i + 1) & mask {
		if c := s.cells[i]; c.tag == tag {
			if n := nodes[c.id()]; n != nil && n.HasFile(path) {
				return i, true
			}
		}
	}
	return 0, false
}

// vacant returns the first empty cell of tag's probe run. Caller holds s.mu.
func (s *homeShard) vacant(tag uint32) int {
	mask := len(s.cells) - 1
	i := int(tag) & mask
	for s.cells[i].home != 0 {
		i = (i + 1) & mask
	}
	return i
}

// homeCellsFor is the table size that holds n cells at most 3/4 full.
func homeCellsFor(n int) int {
	c := minHomeCells
	for c/4*3 < n {
		c <<= 1
	}
	return c
}

// insert adds a cell for tag at home, growing the table first when it would
// pass 3/4 full. Caller holds s.mu.
func (s *homeShard) insert(tag uint32, home int) {
	if want := homeCellsFor(s.n + 1); want > len(s.cells) {
		s.resize(want, -1)
	}
	s.cells[s.vacant(tag)] = homeCell{tag: tag, home: int32(home + 1)}
	s.n++
}

// resize rebuilds the table at size cells, dropping every cell of home
// drop (-1 keeps them all), and returns how many it dropped. Caller holds
// s.mu.
func (s *homeShard) resize(size, drop int) int {
	old := s.cells
	s.cells = make([]homeCell, size)
	kept := 0
	for _, c := range old {
		if c.home != 0 && c.id() != drop {
			s.cells[s.vacant(c.tag)] = c
			kept++
		}
	}
	dropped := s.n - kept
	s.n = kept
	return dropped
}

// unindex empties cell i and shifts back the rest of its probe run, so
// every cell stays reachable from its slot without tombstones. Caller holds
// s.mu.
func (s *homeShard) unindex(i int) {
	mask := len(s.cells) - 1
	for j := (i + 1) & mask; s.cells[j].home != 0; j = (j + 1) & mask {
		// The cell at j may fill the hole at i unless its slot lies
		// cyclically in (i, j].
		if slot := int(s.cells[j].tag) & mask; (j-slot)&mask >= (j-i)&mask {
			s.cells[i] = s.cells[j]
			i = j
		}
	}
	s.cells[i] = homeCell{}
	s.n--
}

// get returns the home of path and whether it exists, confirmed against
// nodes.
func (h *homeShards) get(path string, nodes map[int]*mds.Node) (int, bool) {
	s, tag := h.locate(path)
	s.mu.RLock()
	defer s.mu.RUnlock()
	i, ok := s.find(path, tag, nodes)
	if !ok {
		return -1, false
	}
	return s.cells[i].id(), true
}

// putIfAbsentThen atomically claims path for home and, on success, runs
// then() while still holding the shard lock. The callback is where the
// caller adds the file to the home node's store and filter: keeping it
// inside the critical section makes (cell, node state) move together, so a
// concurrent delete of the same path — which takes the same shard lock
// through removeThen — can never observe the cell without the node state or
// vice versa. When the path already has a home in nodes it returns that
// home and false without calling then. This is the linearization point of a
// create: two workers racing on the same path cannot both claim it.
func (h *homeShards) putIfAbsentThen(path string, home int, nodes map[int]*mds.Node, then func()) (int, bool) {
	s, tag := h.locate(path)
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.find(path, tag, nodes); ok {
		return s.cells[i].id(), false
	}
	s.insert(tag, home)
	then()
	return home, true
}

// removeThen runs then(home) for path's home in nodes and removes its cell,
// under the shard lock, returning the home it had and whether the path
// existed. This is the linearization point of a delete; the callback is
// where the caller unlinks the file from its home node.
func (h *homeShards) removeThen(path string, nodes map[int]*mds.Node, then func(home int)) (int, bool) {
	s, tag := h.locate(path)
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.find(path, tag, nodes)
	if !ok {
		return -1, false
	}
	home := s.cells[i].id()
	then(home)
	s.unindex(i)
	return home, true
}

// rehome moves path from the server from to the server to in one
// shard-locked step: the file joins to's store, then its cell is re-pointed.
// The cell is confirmed against from itself, because a departing server has
// already left the node map. Reports whether from's cell was found.
func (h *homeShards) rehome(path string, from, to *mds.Node) bool {
	s, tag := h.locate(path)
	s.mu.Lock()
	defer s.mu.Unlock()
	mask := len(s.cells) - 1
	for i := int(tag) & mask; s.cells[i].home != 0; i = (i + 1) & mask {
		if c := s.cells[i]; c.tag == tag && c.id() == from.ID() && from.HasFile(path) {
			to.AddFile(path)
			s.cells[i].home = int32(to.ID() + 1)
			return true
		}
	}
	return false
}

// len returns the total number of files across all shards.
func (h *homeShards) len() int {
	total := 0
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.RLock()
		total += s.n
		s.mu.RUnlock()
	}
	return total
}

// scrub removes every cell homed at the given MDS, returning how many were
// dropped. Used by fail-over when a server's files become unavailable; each
// shard is rebuilt without the dead home's cells.
func (h *homeShards) scrub(home int) int {
	dropped := 0
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.Lock()
		dropped += s.resize(len(s.cells), home)
		s.mu.Unlock()
	}
	return dropped
}

// check verifies the index against the servers' stores exactly: every path
// a server in ids stores resolves through the index to that server, and
// per shard the cells of each (tag, home) are exactly as many as the stored
// paths of that (tag, home). A file moved between stores behind the index's
// back, a path stored twice and a cell no stored path accounts for all
// fail it. The caller excludes every mutation (the cluster-exclusive lock).
func (h *homeShards) check(ids []int, nodes map[int]*mds.Node) error {
	type key struct {
		s    *homeShard
		tag  uint32
		home int32
	}
	want := make(map[key]int)
	stored := 0
	for _, id := range ids {
		for _, path := range nodes[id].Store().Paths() {
			if home, ok := h.get(path, nodes); !ok || home != id {
				return fmt.Errorf("core: MDS %d stores %s, which the home index resolves to %d", id, path, home)
			}
			s, tag := h.locate(path)
			want[key{s, tag, int32(id + 1)}]++
			stored++
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
				return fmt.Errorf("core: home shard %d holds a cell (tag %#x, MDS %d) no stored path accounts for", i, c.tag, c.id())
			}
			want[k]--
			cells++
		}
		s.mu.RUnlock()
	}
	// Every cell consumed one stored path of its (tag, home); equal totals
	// leave none unaccounted for.
	if cells != stored {
		return fmt.Errorf("core: the home index holds %d cells, the servers store %d files", cells, stored)
	}
	return nil
}
