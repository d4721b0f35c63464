// Package metastore is the per-MDS metadata repository: the authoritative
// record of which files are homed at one server, with the attribute payload
// a real file system would keep (size, mode, timestamps). Positive Bloom
// answers at L4 are verified against this store; in the simulator that
// verification charges a disk read, in the prototype it is an actual
// lookup behind the RPC boundary.
//
// The store is sized for RAM at scale, the paper's premise: files live as
// dense (path, record) entries in fixed-size chunks, found through a
// tagtable index of 8-byte cells (see Store). A loaded server pays about 48
// bytes of entry and 9–14 bytes of index per file, plus the path bytes it
// shares with its caller.
package metastore

import (
	"fmt"
	"hash/maphash"
	"math"
	"slices"
	"strings"
	"sync"
	"time"
	"unsafe"

	"ghba/internal/tagtable"
)

// Metadata is the attribute record of one file, the payload a successful
// metadata lookup returns to the client.
type Metadata struct {
	// Path is the full file path, the lookup key.
	Path string
	// Size is the file size in bytes.
	Size uint64
	// Mode is the POSIX permission/type bits.
	Mode uint32
	// UID and GID identify the owner.
	UID uint32
	GID uint32
	// MTime is the last-modification time.
	MTime time.Time
	// InodeID is the server-local inode number.
	InodeID uint64
}

// MTimeZero is the MTimeNanos encoding of the zero time.Time, whose UnixNano
// is otherwise undefined.
const MTimeZero int64 = math.MinInt64

// MTimeNanos encodes a modification time as Unix nanoseconds, the form the
// store keeps in memory and the node snapshot keeps on disk.
func MTimeNanos(t time.Time) int64 {
	if t.IsZero() {
		return MTimeZero
	}
	return t.UnixNano()
}

// MTimeFromNanos inverts MTimeNanos.
func MTimeFromNanos(ns int64) time.Time {
	if ns == MTimeZero {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// entry is one file, 48 bytes: the path as a data pointer and a 32-bit
// length, sharing the caller's bytes, beside the rest of Metadata with the
// time flattened to nanoseconds. A 16-byte string header in place of p and
// n would leave the three 32-bit fields 4 bytes of padding: 56 in all.
type entry struct {
	p     *byte // unsafe.StringData(path): keeps the path's bytes alive
	n     uint32
	mode  uint32
	uid   uint32
	gid   uint32
	size  uint64
	mtime int64 // MTimeNanos
	ino   uint64
}

// maxPathLen is the longest path entry.n can hold.
const maxPathLen uint64 = math.MaxUint32

func (e *entry) path() string { return unsafe.String(e.p, e.n) }

func (e *entry) setPath(path string) {
	e.p, e.n = unsafe.StringData(path), pathLen(len(path))
}

// pathLen is n as an entry's length. It panics on a path too long for the
// 32-bit field rather than truncate it.
func pathLen(n int) uint32 {
	if uint64(n) > maxPathLen {
		panic(fmt.Sprintf("metastore: a %d-byte path exceeds the store's limit of %d bytes", n, maxPathLen))
	}
	return uint32(n)
}

// setAttrs copies md's attributes other than its path and inode number.
func (e *entry) setAttrs(md Metadata) {
	e.mode, e.uid, e.gid = md.Mode, md.UID, md.GID
	e.size, e.mtime = md.Size, MTimeNanos(md.MTime)
}

func (e *entry) metadata() Metadata {
	return Metadata{Path: e.path(), Size: e.size, Mode: e.mode, UID: e.uid, GID: e.gid, MTime: MTimeFromNanos(e.mtime), InodeID: e.ino}
}

const (
	// chunkShift sizes a chunk: 1,024 entries are 49,152 bytes, exactly
	// six pages of a large object, which carries no malloc header, so a
	// full chunk wastes nothing and a store's slack is under one chunk.
	chunkShift = 10
	chunkLen   = 1 << chunkShift
	chunkMask  = chunkLen - 1
	// firstChunk is chunk 0's starting length; chunk 0 doubles until it
	// is full-size, so a store of a handful of files stays small. It is
	// the only chunk ever copied.
	firstChunk = 8
)

// Store holds the metadata of all files homed at one MDS. It is safe for
// concurrent use; the prototype serves RPCs against it from many goroutines.
//
// Entries are dense: positions 0..n-1 across the chunks, in insertion
// order except that Delete moves the last entry into the hole. The index
// maps each path's 32-bit hash (its tag) to its position plus one; a probe
// rejects a non-match on the tag without touching the entry. Paths are
// hashed with a per-store random seed, so wire paths cannot be chosen to
// collide, and the index's size depends on the file count alone.
type Store struct {
	seed maphash.Seed // immutable; hashing needs no lock

	mu      sync.RWMutex
	chunks  [][]entry // every chunk but chunk 0 is chunkLen long
	index   tagtable.Table
	n       int
	nextIno uint64
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{seed: maphash.MakeSeed()}
}

func (s *Store) tag(path string) uint32 {
	return uint32(maphash.String(s.seed, path))
}

// at returns the entry at position p < n.
func (s *Store) at(p uint32) *entry {
	return &s.chunks[p>>chunkShift][p&chunkMask]
}

// find returns the index slot of path, or -1 when path is absent.
func (s *Store) find(path string, tag uint32) int {
	for i := s.index.Find(tag); i >= 0; i = s.index.Next(i) {
		if s.at(s.index.Val(i)-1).path() == path {
			return i
		}
	}
	return -1
}

// upsert returns path's entry, appending and indexing an entry with zero
// attributes when path is absent (fresh reports that). Caller holds s.mu.
func (s *Store) upsert(path string, tag uint32) (e *entry, fresh bool) {
	if i := s.find(path, tag); i >= 0 {
		return s.at(s.index.Val(i) - 1), false
	}
	p := s.n
	c, off := p>>chunkShift, p&chunkMask
	switch {
	case c == len(s.chunks):
		size := chunkLen
		if c == 0 {
			size = firstChunk
		}
		s.chunks = append(s.chunks, make([]entry, size))
	case off == len(s.chunks[c]): // chunk 0, not yet full-size
		grown := make([]entry, min(2*off, chunkLen))
		copy(grown, s.chunks[c])
		s.chunks[c] = grown
	}
	e = &s.chunks[c][off]
	e.setPath(path) // before n and the index move, so a refused path leaves them be
	s.n++
	s.index.Insert(tag, uint32(s.n))
	return e, true
}

// Put inserts or replaces metadata for md.Path, assigning an inode number on
// first insertion. It panics on a path of 2³² bytes or more.
func (s *Store) Put(md Metadata) {
	tag := s.tag(md.Path)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, fresh := s.upsert(md.Path, tag)
	if fresh {
		s.nextIno++
		e.ino = s.nextIno
	}
	e.setAttrs(md)
}

// PutPath inserts a minimal record for path; convenience for trace replay
// where only existence matters.
func (s *Store) PutPath(path string) {
	s.Put(Metadata{Path: path, Mode: 0o644})
}

// Get returns the metadata for path and whether it exists.
func (s *Store) Get(path string) (Metadata, bool) {
	tag := s.tag(path)
	s.mu.RLock()
	defer s.mu.RUnlock()
	i := s.find(path, tag)
	if i < 0 {
		return Metadata{}, false
	}
	return s.at(s.index.Val(i) - 1).metadata(), true
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
		moved := s.at(last - 1)
		j := s.index.Find(s.tag(moved.path()))
		for s.index.Val(j) != last {
			j = s.index.Next(j)
		}
		s.index.SetVal(j, hole)
		*s.at(hole - 1) = *moved
	}
	*s.at(last - 1) = entry{}
	s.n--
	return true
}

// Len returns the number of files homed here.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.n
}

// each calls fn on every entry in position order until fn returns false.
// Caller holds s.mu.
func (s *Store) each(fn func(*entry) bool) {
	for p := uint32(0); p < uint32(s.n); p++ {
		if !fn(s.at(p)) {
			return
		}
	}
}

// Paths returns all homed paths in sorted order. Intended for tests and
// migration tooling, not the query path.
func (s *Store) Paths() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, s.n)
	s.each(func(e *entry) bool { out = append(out, e.path()); return true })
	slices.Sort(out)
	return out
}

// Range calls fn for every homed path until fn returns false. The store is
// read-locked for the duration; fn must not call back into the store.
func (s *Store) Range(fn func(path string) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.each(func(e *entry) bool { return fn(e.path()) })
}

// Snapshot is a point-in-time copy of a store's full state, including the
// inode counter — restoring it must never let a later Put reuse an inode
// number an earlier life of the store already handed out.
type Snapshot struct {
	// NextIno is the last inode number assigned.
	NextIno uint64
	// Files holds every record, sorted by Path for deterministic encoding.
	Files []Metadata
}

// Snapshot captures the store's state for durable serialization.
func (s *Store) Snapshot() Snapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	files := make([]Metadata, 0, s.n)
	s.each(func(e *entry) bool { files = append(files, e.metadata()); return true })
	slices.SortFunc(files, func(a, b Metadata) int { return strings.Compare(a.Path, b.Path) })
	return Snapshot{NextIno: s.nextIno, Files: files}
}

// Restore replaces the store's state with the snapshot, inode counter
// included. The counter is additionally bumped above every restored
// record's inode so a snapshot from a buggy or older writer still cannot
// make Put reissue a live inode number. The index and chunks are sized
// for the snapshot once; a repeated path keeps its last record.
func (s *Store) Restore(snap Snapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(snap.Files)
	s.index = tagtable.Make(n)
	s.chunks = make([][]entry, 0, (n+chunkMask)>>chunkShift)
	for left := n; left > 0; left -= chunkLen {
		// Chunk 0 is short only when the whole snapshot is.
		s.chunks = append(s.chunks, make([]entry, min(n, chunkLen)))
	}
	s.n = 0
	s.nextIno = snap.NextIno
	for _, md := range snap.Files {
		e, _ := s.upsert(md.Path, s.tag(md.Path))
		e.setAttrs(md)
		e.ino = md.InodeID
		if md.InodeID > s.nextIno {
			s.nextIno = md.InodeID
		}
	}
}
