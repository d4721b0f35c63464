// Package metastore is the per-MDS metadata repository: the authoritative
// set of paths homed at one server. Positive Bloom answers at L4 are
// verified against this store; in the simulator that verification charges a
// disk read, in the prototype it is an actual lookup behind the RPC
// boundary. A lookup asks only whether a path is here, so the store keeps
// the path and nothing else.
//
// The store is sized for RAM at scale, the paper's premise: paths live as
// dense string headers in fixed-size chunks, found through a tagtable index
// of 8-byte cells (see Store). A loaded server pays 16 bytes of header and
// 9–14 bytes of index per file, plus the path bytes it shares with its
// caller.
package metastore

import (
	"hash/maphash"
	"slices"
	"sync"

	"ghba/internal/tagtable"
)

const (
	// chunkShift sizes a chunk: 2,048 paths are 32,768 bytes, exactly four
	// pages of a large object, which carries no malloc header, so a full
	// chunk wastes nothing and a store's slack is under one chunk.
	chunkShift = 11
	chunkLen   = 1 << chunkShift
	chunkMask  = chunkLen - 1
	// firstChunk is chunk 0's starting length; chunk 0 doubles until it
	// is full-size, so a store of a handful of files stays small. It is
	// the only chunk ever copied.
	firstChunk = 8
)

// Store holds the paths of all files homed at one MDS. It is safe for
// concurrent use; the prototype serves RPCs against it from many goroutines.
//
// Paths are dense: positions 0..n-1 across the chunks, in insertion order
// except that Delete moves the last path into the hole. The index maps each
// path's 32-bit hash (its tag) to its position plus one; a probe rejects a
// non-match on the tag without touching the path. Paths are hashed with a
// per-store random seed, so wire paths cannot be chosen to collide, and the
// index's size depends on the file count alone.
type Store struct {
	seed maphash.Seed // immutable; hashing needs no lock

	mu     sync.RWMutex
	chunks [][]string // every chunk but chunk 0 is chunkLen long
	index  tagtable.Table
	n      int
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{seed: maphash.MakeSeed()}
}

func (s *Store) tag(path string) uint32 {
	return uint32(maphash.String(s.seed, path))
}

// at returns the path slot at position p < n.
func (s *Store) at(p uint32) *string {
	return &s.chunks[p>>chunkShift][p&chunkMask]
}

// find returns the index slot of path, or -1 when path is absent.
func (s *Store) find(path string, tag uint32) int {
	for i := s.index.Find(tag); i >= 0; i = s.index.Next(i) {
		if *s.at(s.index.Val(i) - 1) == path {
			return i
		}
	}
	return -1
}

// insert appends and indexes path unless it is present. Caller holds s.mu.
func (s *Store) insert(path string, tag uint32) {
	if s.find(path, tag) >= 0 {
		return
	}
	p := s.n
	c, off := p>>chunkShift, p&chunkMask
	switch {
	case c == len(s.chunks):
		size := chunkLen
		if c == 0 {
			size = firstChunk
		}
		s.chunks = append(s.chunks, make([]string, size))
	case off == len(s.chunks[c]): // chunk 0, not yet full-size
		grown := make([]string, min(2*off, chunkLen))
		copy(grown, s.chunks[c])
		s.chunks[c] = grown
	}
	s.chunks[c][off] = path
	s.n++
	s.index.Insert(tag, uint32(s.n))
}

// PutPath records path as homed here; a path already present stays as it is.
func (s *Store) PutPath(path string) {
	tag := s.tag(path)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.insert(path, tag)
}

// Has reports whether path is homed here.
func (s *Store) Has(path string) bool {
	tag := s.tag(path)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.find(path, tag) >= 0
}

// Delete removes path, reporting whether it was present.
func (s *Store) Delete(path string) bool {
	tag := s.tag(path)
	s.mu.Lock()
	defer s.mu.Unlock()
	i := s.find(path, tag)
	if i < 0 {
		return false
	}
	hole := s.index.Val(i)
	s.index.Delete(i)
	last := uint32(s.n)
	if hole != last {
		moved := *s.at(last - 1)
		j := s.index.Find(s.tag(moved))
		for s.index.Val(j) != last {
			j = s.index.Next(j)
		}
		s.index.SetVal(j, hole)
		*s.at(hole - 1) = moved
	}
	*s.at(last - 1) = "" // drop the reference, so the path's bytes can go
	s.n--
	return true
}

// Len returns the number of files homed here.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.n
}

// each calls fn on every path in position order until fn returns false.
// Caller holds s.mu.
func (s *Store) each(fn func(string) bool) {
	for p := uint32(0); p < uint32(s.n); p++ {
		if !fn(*s.at(p)) {
			return
		}
	}
}

// Paths returns all homed paths in sorted order: the snapshot's file list,
// and the input of migration tooling and tests, not the query path.
func (s *Store) Paths() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, s.n)
	s.each(func(p string) bool { out = append(out, p); return true })
	slices.Sort(out)
	return out
}

// Range calls fn for every homed path until fn returns false. The store is
// read-locked for the duration; fn must not call back into the store.
func (s *Store) Range(fn func(path string) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.each(fn)
}

// Restore replaces the store's contents with paths, as a snapshot's sorted
// file list holds them. The index and chunks are sized for the list once; a
// repeated path is stored once.
func (s *Store) Restore(paths []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(paths)
	s.index = tagtable.Make(n)
	s.chunks = make([][]string, 0, (n+chunkMask)>>chunkShift)
	for left := n; left > 0; left -= chunkLen {
		// Chunk 0 is short only when the whole list is.
		s.chunks = append(s.chunks, make([]string, min(n, chunkLen)))
	}
	s.n = 0
	for _, p := range paths {
		s.insert(p, s.tag(p))
	}
}
