package mds

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"ghba/internal/bloom"
	"ghba/internal/metastore"
	"ghba/internal/wal"
	"ghba/internal/wire"
)

// Snapshot wire format: everything a daemon must retain across a restart.
// The replica array is deliberately absent — replicas are re-fetched from
// their origins during rejoin (the origins stay authoritative) — and so is
// the daemon's L1 array, a cache that re-warms from traffic.
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
		buf = wire.AppendString16(buf, md.Path)
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
	r := wire.NewReader(data)
	if r.U32() != snapshotMagic {
		return fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	if v := r.U8(); v != snapshotVersion {
		return fmt.Errorf("%w: unknown version %d", ErrBadSnapshot, v)
	}
	id := r.U32()
	deletes := r.U64()
	var local, shipped bloom.Filter
	localErr := local.UnmarshalBinary(r.Bytes(int(r.U32())))
	shippedErr := shipped.UnmarshalBinary(r.Bytes(int(r.U32())))
	nextIno := r.U64()
	files := make([]metastore.Metadata, r.Count(snapshotRecordMin))
	for i := range files {
		files[i] = metastore.Metadata{
			Path:    r.String16(),
			Size:    r.U64(),
			Mode:    r.U32(),
			UID:     r.U32(),
			GID:     r.U32(),
			MTime:   metastore.MTimeFromNanos(int64(r.U64())),
			InodeID: r.U64(),
		}
	}
	if err := r.Done("snapshot"); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if int(id) != n.id {
		return fmt.Errorf("%w: snapshot belongs to MDS %d, not %d", ErrBadSnapshot, id, n.id)
	}
	if localErr != nil {
		return fmt.Errorf("%w: local filter: %v", ErrBadSnapshot, localErr)
	}
	if shippedErr != nil {
		return fmt.Errorf("%w: shipped filter: %v", ErrBadSnapshot, shippedErr)
	}
	// The writer emits each path once, in ascending order; anything else is
	// a forged or damaged blob, not a store to load.
	for i := 1; i < len(files); i++ {
		if files[i].Path <= files[i-1].Path {
			return fmt.Errorf("%w: record %d path %q does not follow %q", ErrBadSnapshot, i, files[i].Path, files[i-1].Path)
		}
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
