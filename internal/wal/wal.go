// Package wal gives one metadata daemon a durable mutation history: an
// append-only write-ahead log of create/delete records plus periodic
// compaction into atomic-rename snapshots. A daemon appends each mutation
// before applying it, snapshots its full state every few thousand records,
// and after a crash recovers by loading the newest valid snapshot and
// replaying the log tail — the state machine above (mds.Node) sees exactly
// the prefix of history that reached disk.
//
// On-disk layout, one directory per daemon:
//
//	wal-%016x.log    log segments, ascending sequence numbers
//	snap-%016x.snap  state snapshots; snap-S covers every segment ≤ S
//	*.tmp            in-progress snapshot writes, discarded on open
//
// Every log record is framed as
//
//	len uint32 | crc uint32 | payload      (big endian; crc32c of payload)
//	payload: op uint8 | path bytes
//
// and a snapshot file is one frame of the same shape whose payload is the
// owner's opaque state blob prefixed by the covered sequence number. The CRC
// makes corruption detection explicit: recovery either replays an exact
// prefix of what was appended (a torn tail is truncated away) or fails
// loudly — it never hands back state that fails its checksum.
//
// Compaction (Snapshot) is crash-safe at every step: the current segment is
// fsynced, the next segment is created, the snapshot is written to a
// temporary file, fsynced, and renamed into place before the superseded
// files are purged. A crash between any two steps leaves a directory Open
// can recover: the extra segment replays as an empty (or short) tail, a
// missing snapshot falls back to the previous one plus the intact segments,
// and a leftover .tmp is ignored.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Record operations.
const (
	// OpCreate homes a file (metadata put + filter add).
	OpCreate uint8 = 1
	// OpDelete unlinks a file.
	OpDelete uint8 = 2
)

// Record is one logged mutation.
type Record struct {
	// Op is OpCreate or OpDelete.
	Op uint8
	// Path is the file path the mutation targets.
	Path string
}

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: nothing acknowledged is ever
	// lost, at one disk flush per mutation.
	SyncAlways SyncPolicy = iota
	// SyncNever leaves flushing to the kernel entirely: a machine crash may
	// lose acknowledged records (a process crash loses nothing — writes
	// reach the kernel synchronously either way).
	SyncNever
)

// ParseSyncPolicy parses "always" (or "") and "never".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always", "":
		return SyncAlways, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("wal: unknown sync policy %q (want always or never)", s)
	}
}

// Options configures a log.
type Options struct {
	// Sync is the fsync policy; the zero value is SyncAlways.
	Sync SyncPolicy
}

// Recovery reports what Open reconstructed from the directory.
type Recovery struct {
	// Snapshot is the newest valid snapshot payload, nil when none exists.
	Snapshot []byte
	// SnapshotSeq is the sequence number the snapshot covers (0 when none).
	SnapshotSeq uint64
	// Records are the log records after the snapshot, in append order.
	Records []Record
	// Torn reports that the last segment ended in a truncated or
	// CRC-corrupt frame; the bad tail was truncated away and Records holds
	// the intact prefix.
	Torn bool
}

// maxRecordBytes bounds one record frame; a length beyond it marks the
// frame (and everything after) corrupt rather than an allocation request.
const maxRecordBytes = 1 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt marks unrecoverable log or snapshot damage: corruption before
// the final segment's tail, a checksum-invalid snapshot with no older
// fallback, or a gap in the segment sequence. Recovery fails loudly with it
// rather than loading state that cannot be verified.
var ErrCorrupt = errors.New("wal: corrupt")

// Log is one daemon's write-ahead log: an open segment accepting appends
// plus the snapshot bookkeeping. Safe for concurrent use; appends serialize
// on an internal mutex.
type Log struct {
	dir  string
	opts Options

	mu            sync.Mutex
	f             *os.File
	seq           uint64        // sequence of the open segment
	sinceSnapshot atomic.Uint64 // records appended (or replayed) since the last snapshot; written under mu, read without it
	dirty         bool
	closed        bool
}

func segmentName(seq uint64) string  { return fmt.Sprintf("wal-%016x.log", seq) }
func snapshotName(seq uint64) string { return fmt.Sprintf("snap-%016x.snap", seq) }

// parseSeq extracts the sequence number from a wal-/snap- file name.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	body := name[len(prefix) : len(name)-len(suffix)]
	seq, err := strconv.ParseUint(body, 16, 64)
	if err != nil || seq == 0 {
		return 0, false
	}
	return seq, true
}

// Open opens (or creates) the log directory, recovers the newest valid
// snapshot plus the log tail after it, and returns a log positioned to
// append. The recovery rules:
//
//   - a leftover *.tmp (a snapshot write that never renamed) is deleted;
//   - the newest snapshot must pass its CRC — by the time a newer snapshot
//     exists its predecessors are purged, so a corrupt one is ErrCorrupt;
//   - segments after the snapshot must be contiguous; a gap is ErrCorrupt;
//   - a truncated or corrupt frame in the final segment is a torn tail:
//     the file is truncated to the intact prefix and recovery succeeds;
//     the same damage in an earlier segment is ErrCorrupt, because every
//     non-final segment was fsynced whole before its successor was created.
func Open(dir string, opts Options) (*Log, *Recovery, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: reading %s: %w", dir, err)
	}
	var segs, snaps []uint64
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if seq, ok := parseSeq(name, "wal-", ".log"); ok {
			segs = append(segs, seq)
		}
		if seq, ok := parseSeq(name, "snap-", ".snap"); ok {
			snaps = append(snaps, seq)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })

	rec := &Recovery{}
	if len(snaps) > 0 {
		seq := snaps[len(snaps)-1]
		payload, err := readSnapshotFile(filepath.Join(dir, snapshotName(seq)), seq)
		if err != nil {
			return nil, nil, err
		}
		rec.Snapshot, rec.SnapshotSeq = payload, seq
	}

	// Segments at or before the snapshot are covered by it; segments after
	// it replay in order and must be contiguous starting at snapshot+1.
	var replay []uint64
	for _, s := range segs {
		if s > rec.SnapshotSeq {
			replay = append(replay, s)
		}
	}
	if len(replay) > 0 && replay[0] != rec.SnapshotSeq+1 {
		return nil, nil, fmt.Errorf("%w: first segment after snapshot %d is %d", ErrCorrupt, rec.SnapshotSeq, replay[0])
	}
	for i := 1; i < len(replay); i++ {
		if replay[i] != replay[i-1]+1 {
			return nil, nil, fmt.Errorf("%w: segment gap between %d and %d", ErrCorrupt, replay[i-1], replay[i])
		}
	}

	l := &Log{dir: dir, opts: opts}
	for i, seq := range replay {
		last := i == len(replay)-1
		records, goodLen, torn, err := readSegment(filepath.Join(dir, segmentName(seq)))
		if err != nil {
			return nil, nil, err
		}
		if torn && !last {
			return nil, nil, fmt.Errorf("%w: segment %d has a torn tail but is not the final segment", ErrCorrupt, seq)
		}
		if torn {
			// Truncate the garbage so later appends extend the intact
			// prefix instead of burying a bad frame mid-file.
			if err := os.Truncate(filepath.Join(dir, segmentName(seq)), goodLen); err != nil {
				return nil, nil, fmt.Errorf("wal: truncating torn tail of segment %d: %w", seq, err)
			}
			rec.Torn = true
		}
		rec.Records = append(rec.Records, records...)
	}

	seq := rec.SnapshotSeq + 1
	if len(replay) > 0 {
		seq = replay[len(replay)-1]
	}
	f, err := os.OpenFile(filepath.Join(dir, segmentName(seq)), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: opening segment %d: %w", seq, err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: seeking segment %d: %w", seq, err)
	}
	l.f, l.seq = f, seq
	l.sinceSnapshot.Store(uint64(len(rec.Records)))
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, nil, err
	}
	return l, rec, nil
}

// RecordsSinceSnapshot returns how many records the log holds beyond the
// last snapshot — the owner's compaction cadence signal. It takes no lock,
// so it answers during an append's fsync.
func (l *Log) RecordsSinceSnapshot() uint64 {
	return l.sinceSnapshot.Load()
}

// Append writes records to the open segment, one frame each, in one write
// call, then applies the sync policy. The records are durable (per policy)
// when Append returns; callers apply the mutation to their in-memory state
// only after that — write-ahead, not write-behind.
func (l *Log) Append(recs ...Record) error {
	if len(recs) == 0 {
		return nil
	}
	buf := make([]byte, 0, 64*len(recs))
	for _, r := range recs {
		frame, err := encodeRecord(r)
		if err != nil {
			return err
		}
		buf = append(buf, frame...)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: log closed")
	}
	if _, err := l.f.Write(buf); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.sinceSnapshot.Add(uint64(len(recs)))
	l.dirty = true
	if l.opts.Sync == SyncAlways {
		return l.syncLocked()
	}
	return nil
}

func (l *Log) syncLocked() error {
	if !l.dirty {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.dirty = false
	return nil
}

// Snapshot compacts the log: state (the owner's full serialized state,
// reflecting every record appended so far) supersedes the current segment
// and everything before it. Steps, each crash-safe against the next:
//
//  1. fsync the current segment (so a crash mid-compaction can still
//     replay it under the previous snapshot),
//  2. create and fsync the next segment,
//  3. write state to a .tmp file, fsync, rename to snap-<seq>, fsync dir,
//  4. purge superseded segments and snapshots (best effort — leftovers
//     are ignored or re-purged by the next Open).
func (l *Log) Snapshot(state []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: log closed")
	}
	if err := l.syncLocked(); err != nil {
		return err
	}
	covered := l.seq
	nextSeq := l.seq + 1
	next, err := os.OpenFile(filepath.Join(l.dir, segmentName(nextSeq)), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment %d: %w", nextSeq, err)
	}
	if err := next.Sync(); err != nil {
		next.Close()
		return fmt.Errorf("wal: fsync new segment: %w", err)
	}
	if err := writeSnapshotFile(l.dir, covered, state); err != nil {
		next.Close()
		return err
	}
	old := l.f
	l.f, l.seq = next, nextSeq
	l.sinceSnapshot.Store(0)
	l.dirty = false
	old.Close()
	// Purge everything the new snapshot supersedes; failures leave files
	// the next Open ignores.
	for seq := covered; seq > 0; seq-- {
		p := filepath.Join(l.dir, segmentName(seq))
		if err := os.Remove(p); err != nil {
			break // older ones were purged by earlier snapshots
		}
	}
	for seq := covered - 1; seq > 0; seq-- {
		p := filepath.Join(l.dir, snapshotName(seq))
		if err := os.Remove(p); err != nil {
			break
		}
	}
	return syncDir(l.dir)
}

// Close flushes and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	err := l.syncLocked()
	l.closed = true
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Abandon closes the log without flushing — the crash-simulation exit used
// by kill tests and KillMDS: whatever the kernel already has is what a
// restarted daemon will see, exactly as after a SIGKILL.
func (l *Log) Abandon() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	return l.f.Close()
}

// frameHeader is the len | crc prefix of every frame.
const frameHeader = 8

// frame wraps payload as one len | crc | payload frame — the shape of every
// log record and of a snapshot file.
func frame(payload []byte) []byte {
	out := make([]byte, frameHeader, frameHeader+len(payload))
	binary.BigEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(out[4:8], crc32.Checksum(payload, crcTable))
	return append(out, payload...)
}

// nextFrame splits the frame at the head of data from the bytes after it.
// It refuses a frame whose header or payload is cut short, whose declared
// length is outside [minLen, maxLen], or whose payload fails its checksum.
func nextFrame(data []byte, minLen, maxLen uint32) (payload, rest []byte, err error) {
	if len(data) < frameHeader {
		return nil, nil, fmt.Errorf("truncated frame header (%d bytes)", len(data))
	}
	n := binary.BigEndian.Uint32(data[0:4])
	if n < minLen || n > maxLen {
		return nil, nil, fmt.Errorf("frame length %d outside [%d, %d]", n, minLen, maxLen)
	}
	if uint64(len(data)-frameHeader) < uint64(n) {
		return nil, nil, fmt.Errorf("frame length %d, %d bytes follow", n, len(data)-frameHeader)
	}
	payload = data[frameHeader : frameHeader+n]
	if crc32.Checksum(payload, crcTable) != binary.BigEndian.Uint32(data[4:8]) {
		return nil, nil, errors.New("checksum mismatch")
	}
	return payload, data[frameHeader+n:], nil
}

// validOp reports whether op is a record operation.
func validOp(op uint8) bool { return op == OpCreate || op == OpDelete }

// encodeRecord frames one record: len | crc | (op | path).
func encodeRecord(r Record) ([]byte, error) {
	if !validOp(r.Op) {
		return nil, fmt.Errorf("wal: unknown record op %d", r.Op)
	}
	if 1+len(r.Path) > maxRecordBytes {
		return nil, fmt.Errorf("wal: record %d bytes exceeds limit", 1+len(r.Path))
	}
	payload := make([]byte, 1+len(r.Path))
	payload[0] = r.Op
	copy(payload[1:], r.Path)
	return frame(payload), nil
}

// readSegment parses one segment file, returning the intact records, the
// byte length of the intact prefix, and whether a torn (truncated or
// CRC-corrupt) tail was found after it.
func readSegment(path string) (records []Record, goodLen int64, torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, false, fmt.Errorf("wal: reading segment: %w", err)
	}
	for rest := data; len(rest) > 0; {
		payload, next, err := nextFrame(rest, 1, maxRecordBytes)
		if err != nil || !validOp(payload[0]) {
			return records, int64(len(data) - len(rest)), true, nil
		}
		records = append(records, Record{Op: payload[0], Path: string(payload[1:])})
		rest = next
	}
	return records, int64(len(data)), false, nil
}

// writeSnapshotFile writes one snapshot frame (len | crc | seq+state) to a
// temp file and renames it into place.
func writeSnapshotFile(dir string, seq uint64, state []byte) error {
	payload := binary.BigEndian.AppendUint64(make([]byte, 0, 8+len(state)), seq)
	data := frame(append(payload, state...))

	final := filepath.Join(dir, snapshotName(seq))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating snapshot temp: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: writing snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: fsync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: closing snapshot: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: installing snapshot: %w", err)
	}
	return syncDir(dir)
}

// readSnapshotFile loads and verifies one snapshot file, returning its
// state payload. The file is exactly one frame, uncapped by maxRecordBytes.
func readSnapshotFile(path string, wantSeq uint64) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("wal: reading snapshot: %w", err)
	}
	payload, rest, err := nextFrame(data, 8, math.MaxUint32)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("%d bytes after the frame", len(rest))
	}
	if err != nil {
		return nil, fmt.Errorf("%w: snapshot %s: %v", ErrCorrupt, filepath.Base(path), err)
	}
	if seq := binary.BigEndian.Uint64(payload[0:8]); seq != wantSeq {
		return nil, fmt.Errorf("%w: snapshot %s claims seq %d", ErrCorrupt, filepath.Base(path), seq)
	}
	return payload[8:], nil
}

// syncDir fsyncs a directory so renames and creates within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: opening dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: fsync dir: %w", err)
	}
	return nil
}
