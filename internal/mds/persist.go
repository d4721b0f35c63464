package mds

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"ghba/internal/bloom"
	"ghba/internal/metastore"
	"ghba/internal/wal"
)

// Snapshot wire format: everything a daemon must retain across a restart.
// The replica array and L1 cache are deliberately absent — replicas
// are re-fetched from their origins during rejoin (the origins stay
// authoritative), and the L1 array is a cache that re-warms from traffic.
//
//	magic   uint32  0x6D645331 ("mdS1")
//	version uint8   1
//	id      uint32  owning MDS id (sanity-checked on load)
//	deletes uint64  deletesSinceRebuild
//	local   uint32 len | bloom filter bytes (bloom marshal format)
//	shipped uint32 len | bloom filter bytes (lastShipped)
//	nextIno uint64  metastore inode counter
//	count   uint32  file records in strictly ascending path order, each:
//	  pathLen uint16 | path | size uint64 | mode uint32 | uid uint32 |
//	  gid uint32 | mtime int64 unix-nanos (metastore.MTimeZero = zero time) | ino uint64
const (
	snapshotMagic   uint32 = 0x6D645331
	snapshotVersion uint8  = 1
	// snapshotRecordMin is the encoded size of a record with an empty path.
	snapshotRecordMin = 2 + 8 + 4 + 4 + 4 + 8 + 8
)

// ErrBadSnapshot marks a snapshot blob that fails structural validation.
var ErrBadSnapshot = errors.New("mds: bad snapshot")

// MarshalSnapshot serializes the node's durable state. Safe to call
// concurrently with queries; callers that need the snapshot to match a WAL
// position exactly must hold off mutations themselves (the proto layer
// snapshots under its per-daemon request mutex).
func (n *Node) MarshalSnapshot() ([]byte, error) {
	n.mu.RLock()
	localBytes, err := n.local.Load().MarshalBinary()
	if err != nil {
		n.mu.RUnlock()
		return nil, fmt.Errorf("mds: marshal local filter: %w", err)
	}
	shippedBytes, err := n.lastShipped.MarshalBinary()
	if err != nil {
		n.mu.RUnlock()
		return nil, fmt.Errorf("mds: marshal shipped filter: %w", err)
	}
	deletes := n.deletesSinceRebuild
	n.mu.RUnlock()

	snap := n.store.Snapshot()

	size := 4 + 1 + 4 + 8 + 4 + len(localBytes) + 4 + len(shippedBytes) + 8 + 4
	for _, md := range snap.Files {
		size += 2 + len(md.Path) + 8 + 4 + 4 + 4 + 8 + 8
	}
	buf := make([]byte, 0, size)
	buf = binary.BigEndian.AppendUint32(buf, snapshotMagic)
	buf = append(buf, snapshotVersion)
	buf = binary.BigEndian.AppendUint32(buf, uint32(n.id))
	buf = binary.BigEndian.AppendUint64(buf, deletes)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(localBytes)))
	buf = append(buf, localBytes...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(shippedBytes)))
	buf = append(buf, shippedBytes...)
	buf = binary.BigEndian.AppendUint64(buf, snap.NextIno)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(snap.Files)))
	for _, md := range snap.Files {
		if len(md.Path) > math.MaxUint16 {
			return nil, fmt.Errorf("mds: path %d bytes exceeds snapshot limit", len(md.Path))
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(md.Path)))
		buf = append(buf, md.Path...)
		buf = binary.BigEndian.AppendUint64(buf, md.Size)
		buf = binary.BigEndian.AppendUint32(buf, md.Mode)
		buf = binary.BigEndian.AppendUint32(buf, md.UID)
		buf = binary.BigEndian.AppendUint32(buf, md.GID)
		buf = binary.BigEndian.AppendUint64(buf, uint64(metastore.MTimeNanos(md.MTime)))
		buf = binary.BigEndian.AppendUint64(buf, md.InodeID)
	}
	return buf, nil
}

// UnmarshalSnapshot replaces the node's store, local filter, shipped
// snapshot and deletion counter with the snapshot's state. The node must be
// quiescent (freshly constructed, before serving). A snapshot whose filters
// are not of the node's configured geometry is ErrBadSnapshot.
func (n *Node) UnmarshalSnapshot(data []byte) error {
	r := snapReader{data: data}
	if r.u32() != snapshotMagic {
		return fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	if v := r.u8(); v != snapshotVersion {
		return fmt.Errorf("%w: unknown version %d", ErrBadSnapshot, v)
	}
	if id := int(r.u32()); id != n.id && !r.failed {
		return fmt.Errorf("%w: snapshot belongs to MDS %d, not %d", ErrBadSnapshot, id, n.id)
	}
	deletes := r.u64()

	var local, shipped bloom.Filter
	if err := local.UnmarshalBinary(r.bytes(int(r.u32()))); err != nil && !r.failed {
		return fmt.Errorf("%w: local filter: %v", ErrBadSnapshot, err)
	}
	if err := shipped.UnmarshalBinary(r.bytes(int(r.u32()))); err != nil && !r.failed {
		return fmt.Errorf("%w: shipped filter: %v", ErrBadSnapshot, err)
	}

	nextIno := r.u64()
	count := r.u32()
	// Refuse a count the remaining bytes cannot possibly carry before
	// allocating for it.
	if rest := len(r.data) - r.off; int(count) > rest/snapshotRecordMin {
		return fmt.Errorf("%w: %d file records declared in %d bytes", ErrBadSnapshot, count, rest)
	}
	files := make([]metastore.Metadata, 0, count)
	for i := uint32(0); i < count && !r.failed; i++ {
		md := metastore.Metadata{Path: string(r.bytes(int(r.u16())))}
		md.Size = r.u64()
		md.Mode = r.u32()
		md.UID = r.u32()
		md.GID = r.u32()
		md.MTime = metastore.MTimeFromNanos(int64(r.u64()))
		md.InodeID = r.u64()
		// The writer emits each path once, in ascending order; anything
		// else is a forged or damaged blob, not a store to load.
		if i > 0 && md.Path <= files[i-1].Path && !r.failed {
			return fmt.Errorf("%w: record %d path %q does not follow %q", ErrBadSnapshot, i, md.Path, files[i-1].Path)
		}
		files = append(files, md)
	}
	if r.failed {
		return fmt.Errorf("%w: truncated at byte %d", ErrBadSnapshot, r.off)
	}
	if r.off != len(r.data) {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadSnapshot, len(r.data)-r.off)
	}

	// A data dir written under another filter sizing decodes fine but cannot
	// serve: the next rebuild would build a configured-geometry filter beside
	// a shipped one of the snapshot's. XorBits names both geometries when it
	// refuses a pair, and the second scan is the distance the node tracks.
	if _, err := local.XorBits(n.local.Load()); err != nil {
		return fmt.Errorf("%w: local filter vs this node's configuration: %v", ErrBadSnapshot, err)
	}
	delta, err := local.XorBits(&shipped)
	if err != nil {
		return fmt.Errorf("%w: local vs shipped filter: %v", ErrBadSnapshot, err)
	}

	n.store.Restore(metastore.Snapshot{NextIno: nextIno, Files: files})
	n.mu.Lock()
	n.local.Store(&local)
	n.lastShipped = &shipped
	n.delta = delta
	n.deletesSinceRebuild = deletes
	n.mu.Unlock()
	return nil
}

// snapReader cursors over a snapshot blob; out-of-bounds reads set failed
// and return zeros, so decode loops check one flag instead of every read.
type snapReader struct {
	data   []byte
	off    int
	failed bool
}

func (r *snapReader) bytes(n int) []byte {
	if r.failed || n < 0 || len(r.data)-r.off < n {
		r.failed = true
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *snapReader) u8() uint8 {
	b := r.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *snapReader) u16() uint16 {
	b := r.bytes(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (r *snapReader) u32() uint32 {
	b := r.bytes(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *snapReader) u64() uint64 {
	b := r.bytes(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// RecoveryInfo summarizes what Recover reconstructed.
type RecoveryInfo struct {
	// SnapshotSeq is the WAL sequence the loaded snapshot covered (0 when
	// the daemon started from an empty or snapshot-less directory).
	SnapshotSeq uint64
	// Replayed is the number of log records applied after the snapshot.
	Replayed int
	// Torn reports the WAL had a torn tail that was truncated away.
	Torn bool
	// Files is the number of files homed here after recovery.
	Files int
}

// Recover builds a node from a WAL directory: the latest valid snapshot is
// loaded and the log tail replayed on top, then the log is left open for
// the daemon's subsequent appends. An empty or absent directory yields a
// fresh node and a fresh log — first boot and recovery are the same path.
func Recover(id int, cfg Config, dir string, opts wal.Options) (*Node, *wal.Log, RecoveryInfo, error) {
	n, err := NewNode(id, cfg)
	if err != nil {
		return nil, nil, RecoveryInfo{}, err
	}
	l, rec, err := wal.Open(dir, opts)
	if err != nil {
		return nil, nil, RecoveryInfo{}, fmt.Errorf("mds: opening WAL for MDS %d: %w", id, err)
	}
	if rec.Snapshot != nil {
		if err := n.UnmarshalSnapshot(rec.Snapshot); err != nil {
			l.Close()
			return nil, nil, RecoveryInfo{}, fmt.Errorf("mds: loading snapshot for MDS %d: %w", id, err)
		}
	}
	for _, r := range rec.Records {
		switch r.Op {
		case wal.OpCreate:
			n.AddFile(r.Path)
		case wal.OpDelete:
			n.DeleteFile(r.Path)
		}
	}
	info := RecoveryInfo{
		SnapshotSeq: rec.SnapshotSeq,
		Replayed:    len(rec.Records),
		Torn:        rec.Torn,
		Files:       n.FileCount(),
	}
	return n, l, info, nil
}
