package core

import "sync"

// homeShardCount is the number of locks the ground-truth file→home map is
// striped over. A power of two keeps the shard selection a mask; 64 shards
// hold contention near zero for any worker count this simulator will see.
const homeShardCount = 64

// homeShards is the sharded ground-truth mapping of file path → home MDS.
// Creates, deletes and L4 reads from concurrent workers touch only the
// shard their path hashes to, so mutations on different paths never
// serialize on one map lock. Reconfiguration-level scans (scrub, re-home)
// still go shard by shard; they run under the cluster-exclusive lock, which
// keeps them atomic with respect to the mutating read-lock holders.
type homeShards struct {
	shards [homeShardCount]homeShard
}

type homeShard struct {
	mu sync.RWMutex
	m  map[string]int
}

func newHomeShards() *homeShards {
	h := &homeShards{}
	for i := range h.shards {
		h.shards[i].m = make(map[string]int)
	}
	return h
}

// shard returns the shard owning path, via FNV-1a over the path bytes.
func (h *homeShards) shard(path string) *homeShard {
	const offset, prime = uint64(14695981039346656037), uint64(1099511628211)
	hash := offset
	for i := 0; i < len(path); i++ {
		hash ^= uint64(path[i])
		hash *= prime
	}
	return &h.shards[hash&(homeShardCount-1)]
}

// get returns the home of path and whether it exists.
func (h *homeShards) get(path string) (int, bool) {
	s := h.shard(path)
	s.mu.RLock()
	home, ok := s.m[path]
	s.mu.RUnlock()
	return home, ok
}

// put records path's home, overwriting any previous mapping. Callers on the
// concurrent write path must instead use putIfAbsentThen so the paired node
// update cannot interleave with a racing delete; plain put is for the
// re-homing a retiring server's files go through, serialized by the
// cluster-exclusive lock.
func (h *homeShards) put(path string, home int) {
	s := h.shard(path)
	s.mu.Lock()
	s.m[path] = home
	s.mu.Unlock()
}

// putIfAbsentThen atomically claims path for home and, on success, runs
// then() while still holding the shard lock. The callback is where the
// caller updates the home node's store and filter: keeping it inside the
// critical section makes (map entry, node state) move together, so a
// concurrent delete of the same path — which takes the same shard lock
// through removeThen — can never observe the map entry without the node
// state or vice versa. When the path already has a home it returns that home
// and false without calling then. This is the linearization point of a
// create: two workers racing on the same path cannot both claim it.
func (h *homeShards) putIfAbsentThen(path string, home int, then func()) (int, bool) {
	s := h.shard(path)
	s.mu.Lock()
	if prev, ok := s.m[path]; ok {
		s.mu.Unlock()
		return prev, false
	}
	s.m[path] = home
	then()
	s.mu.Unlock()
	return home, true
}

// removeThen deletes path's mapping and, when it existed, runs then(home)
// under the shard lock, returning the home it had and whether the path
// existed. This is the linearization point of a delete; the callback is
// where the caller unlinks the file from its home node.
func (h *homeShards) removeThen(path string, then func(home int)) (int, bool) {
	s := h.shard(path)
	s.mu.Lock()
	home, ok := s.m[path]
	if ok {
		delete(s.m, path)
		then(home)
	}
	s.mu.Unlock()
	if !ok {
		return -1, false
	}
	return home, true
}

// len returns the total number of files across all shards.
func (h *homeShards) len() int {
	total := 0
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.RLock()
		total += len(s.m)
		s.mu.RUnlock()
	}
	return total
}

// scrub removes every path homed at the given MDS, returning how many were
// dropped. Used by fail-over when a server's files become unavailable.
func (h *homeShards) scrub(home int) int {
	dropped := 0
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.Lock()
		for path, hm := range s.m {
			if hm == home {
				delete(s.m, path)
				dropped++
			}
		}
		s.mu.Unlock()
	}
	return dropped
}
