// Package metastore is the per-MDS metadata repository: the authoritative
// record of which files are homed at one server, with the attribute payload
// a real file system would keep (size, mode, timestamps). Positive Bloom
// answers at L4 are verified against this store; in the simulator that
// verification charges a disk read, in the prototype it is an actual map
// lookup behind the RPC boundary.
package metastore

import (
	"math"
	"sort"
	"sync"
	"time"
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

// record is what the store keeps per file: Metadata without the path (the
// map key already holds it) and with the time flattened to nanoseconds —
// 40 bytes a map slot instead of 72, which is most of a loaded server's heap.
type record struct {
	size  uint64
	mtime int64 // MTimeNanos
	ino   uint64
	mode  uint32
	uid   uint32
	gid   uint32
}

func recordOf(md Metadata) record {
	return record{size: md.Size, mtime: MTimeNanos(md.MTime), ino: md.InodeID, mode: md.Mode, uid: md.UID, gid: md.GID}
}

func (r record) metadata(path string) Metadata {
	return Metadata{Path: path, Size: r.size, Mode: r.mode, UID: r.uid, GID: r.gid, MTime: MTimeFromNanos(r.mtime), InodeID: r.ino}
}

// Store holds the metadata of all files homed at one MDS. It is safe for
// concurrent use; the prototype serves RPCs against it from many goroutines.
type Store struct {
	mu      sync.RWMutex
	files   map[string]record
	nextIno uint64
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{files: make(map[string]record)}
}

// Put inserts or replaces metadata for md.Path, assigning an inode number on
// first insertion.
func (s *Store) Put(md Metadata) {
	rec := recordOf(md)
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.files[md.Path]; ok {
		rec.ino = old.ino
	} else {
		s.nextIno++
		rec.ino = s.nextIno
	}
	s.files[md.Path] = rec
}

// PutPath inserts a minimal record for path; convenience for trace replay
// where only existence matters.
func (s *Store) PutPath(path string) {
	s.Put(Metadata{Path: path, Mode: 0o644})
}

// Get returns the metadata for path and whether it exists.
func (s *Store) Get(path string) (Metadata, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rec, ok := s.files[path]
	if !ok {
		return Metadata{}, false
	}
	return rec.metadata(path), true
}

// Has reports whether path is homed here.
func (s *Store) Has(path string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.files[path]
	return ok
}

// Delete removes path, reporting whether it was present.
func (s *Store) Delete(path string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.files[path]
	delete(s.files, path)
	return ok
}

// Len returns the number of files homed here.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.files)
}

// Paths returns all homed paths in sorted order. Intended for tests and
// migration tooling, not the query path.
func (s *Store) Paths() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.files))
	for p := range s.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Range calls fn for every record until fn returns false. The store is
// read-locked for the duration; fn must not call back into the store.
func (s *Store) Range(fn func(Metadata) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for path, rec := range s.files {
		if !fn(rec.metadata(path)) {
			return
		}
	}
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
	files := make([]Metadata, 0, len(s.files))
	for path, rec := range s.files {
		files = append(files, rec.metadata(path))
	}
	sort.Slice(files, func(i, j int) bool { return files[i].Path < files[j].Path })
	return Snapshot{NextIno: s.nextIno, Files: files}
}

// Restore replaces the store's state with the snapshot, inode counter
// included. The counter is additionally bumped above every restored
// record's inode so a snapshot from a buggy or older writer still cannot
// make Put reissue a live inode number.
func (s *Store) Restore(snap Snapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.files = make(map[string]record, len(snap.Files))
	s.nextIno = snap.NextIno
	for _, md := range snap.Files {
		s.files[md.Path] = recordOf(md)
		if md.InodeID > s.nextIno {
			s.nextIno = md.InodeID
		}
	}
}
