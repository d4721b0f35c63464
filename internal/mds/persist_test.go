package mds

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ghba/internal/wal"
)

func testConfig() Config {
	return Config{ExpectedFiles: 1000, BitsPerFile: 8, LRUCapacity: 64, LRUBitsPerFile: 8}
}

func TestSnapshotRoundTrip(t *testing.T) {
	n, err := NewNode(3, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	n.AddFile("/full")
	for i := 0; i < 50; i++ {
		n.AddFile(fmt.Sprintf("/f/%d", i))
	}
	n.DeleteFile("/f/10")
	n.Ship() // make lastShipped differ from a fresh filter

	blob, err := n.MarshalSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	back, err := NewNode(3, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := back.UnmarshalSnapshot(blob); err != nil {
		t.Fatalf("UnmarshalSnapshot: %v", err)
	}
	if got, want := back.Store().Paths(), n.Store().Paths(); !slices.Equal(got, want) {
		t.Fatalf("restored %d paths, want the %d stored", len(got), len(want))
	}
	if back.DeletesSinceRebuild() != n.DeletesSinceRebuild() {
		t.Fatalf("delete counter %d, want %d", back.DeletesSinceRebuild(), n.DeletesSinceRebuild())
	}
	// The deleted path's bits are still in the filter (no rebuild yet) but
	// the store is authoritative either way.
	if back.HasFile("/f/10") {
		t.Fatal("deleted file resurrected")
	}
	if !back.LocalPositiveDigest(digestOf("/f/11")) {
		t.Fatal("restored filter lost a live path")
	}
	// Drift tracking must survive: shipped == local at snapshot time.
	if back.DeltaBits() != n.DeltaBits() {
		t.Fatalf("delta bits %d, want %d", back.DeltaBits(), n.DeltaBits())
	}
}

func TestSnapshotRejectsWrongID(t *testing.T) {
	n, _ := NewNode(1, testConfig())
	blob, err := n.MarshalSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	other, _ := NewNode(2, testConfig())
	if err := other.UnmarshalSnapshot(blob); err == nil {
		t.Fatal("snapshot for MDS 1 loaded into MDS 2")
	}
}

// TestSnapshotRejectsOtherGeometry is the regression test for a data dir
// restarted under another filter sizing: the snapshot used to load, and the
// first rebuild afterwards panicked comparing a configured-geometry local
// filter with the snapshot's shipped one. Both mismatch kinds are refused at
// load, Recover surfaces the refusal as a start-up error, and the refusing
// node is left untouched and healthy through a rebuild.
func TestSnapshotRejectsOtherGeometry(t *testing.T) {
	small, big := testConfig(), testConfig()
	big.ExpectedFiles = 4 * small.ExpectedFiles

	dir := t.TempDir()
	n, l, _, err := Recover(1, small, dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n.AddFile("/a")
	blob, err := n.MarshalSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot(blob); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Kind 2: the local filter matches the node, the shipped one does not —
	// splice the big node's shipped filter behind the small node's local one.
	other, _ := NewNode(1, big)
	otherBlob, err := other.MarshalSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	const filtersAt = 4 + 1 + 4 + 8 // magic, version, id, deletes
	localEnd := func(b []byte) int { return filtersAt + 4 + int(binary.BigEndian.Uint32(b[filtersAt:])) }
	shippedEnd := func(b []byte) int { e := localEnd(b); return e + 4 + int(binary.BigEndian.Uint32(b[e:])) }
	spliced := append([]byte{}, blob[:localEnd(blob)]...)
	spliced = append(spliced, otherBlob[localEnd(otherBlob):shippedEnd(otherBlob)]...)
	spliced = append(spliced, blob[shippedEnd(blob):]...)

	for name, tc := range map[string]struct {
		cfg  Config
		blob []byte
	}{
		"snapshot of another sizing": {big, blob},
		"shipped differs from local": {small, spliced},
	} {
		m, _ := NewNode(1, tc.cfg)
		m.AddFile("/kept")
		err := m.UnmarshalSnapshot(tc.blob)
		if !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), "m=8000") || !strings.Contains(err.Error(), "m=32000") {
			t.Fatalf("%s: err = %v, want ErrBadSnapshot naming both geometries", name, err)
		}
		// Refused before anything was replaced: the node still serves, ships
		// and rebuilds on its own geometry.
		if !m.HasFile("/kept") || m.HasFile("/a") {
			t.Fatalf("%s: refused snapshot changed the store", name)
		}
		m.DeleteFile("/kept")
		if !m.RebuildIfStale(1) || m.NeedsShip(1<<20) {
			t.Fatalf("%s: rebuild after a refused snapshot misbehaved", name)
		}
		m.Ship()
	}

	if _, _, _, err := Recover(1, big, dir, wal.Options{}); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("Recover under another sizing: err = %v, want ErrBadSnapshot", err)
	}
	back, l2, _, err := Recover(1, small, dir, wal.Options{})
	if err != nil {
		t.Fatalf("Recover under the original sizing: %v", err)
	}
	defer l2.Close()
	if !back.HasFile("/a") {
		t.Fatal("original sizing lost /a")
	}
}

func TestSnapshotRejectsDamage(t *testing.T) {
	n, _ := NewNode(1, testConfig())
	n.AddFile("/a")
	blob, err := n.MarshalSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() *Node { m, _ := NewNode(1, testConfig()); return m }
	for cut := 0; cut < len(blob); cut += 7 {
		if err := fresh().UnmarshalSnapshot(blob[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if err := fresh().UnmarshalSnapshot(append(append([]byte{}, blob...), 0xff)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

func TestRecoverFreshDir(t *testing.T) {
	n, l, info, err := Recover(5, testConfig(), t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if info.Files != 0 || info.Replayed != 0 || info.SnapshotSeq != 0 {
		t.Fatalf("fresh dir recovery: %+v", info)
	}
	if n.ID() != 5 {
		t.Fatalf("id = %d", n.ID())
	}
}

func TestRecoverReplaysLogOverSnapshot(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()

	// Life 1: create files, snapshot mid-stream, keep mutating, crash.
	n, l, _, err := Recover(2, cfg, dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	apply := func(r wal.Record) {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
		if r.Op == wal.OpCreate {
			n.AddFile(r.Path)
		} else {
			n.DeleteFile(r.Path)
		}
	}
	for i := 0; i < 30; i++ {
		apply(wal.Record{Op: wal.OpCreate, Path: fmt.Sprintf("/pre/%d", i)})
	}
	apply(wal.Record{Op: wal.OpDelete, Path: "/pre/4"})
	blob, err := n.MarshalSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot(blob); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		apply(wal.Record{Op: wal.OpCreate, Path: fmt.Sprintf("/post/%d", i)})
	}
	apply(wal.Record{Op: wal.OpDelete, Path: "/pre/7"})
	wantFiles := n.FileCount()
	if err := l.Abandon(); err != nil { // crash, no clean close
		t.Fatal(err)
	}

	// Life 2: recover and verify the merged state.
	n2, l2, info, err := Recover(2, cfg, dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if info.SnapshotSeq != 1 || info.Replayed != 11 {
		t.Fatalf("recovery info: %+v", info)
	}
	if info.Files != wantFiles || n2.FileCount() != wantFiles {
		t.Fatalf("recovered %d files, want %d", n2.FileCount(), wantFiles)
	}
	for _, probe := range []struct {
		path string
		want bool
	}{
		{"/pre/0", true}, {"/pre/4", false}, {"/pre/7", false},
		{"/post/9", true}, {"/never", false},
	} {
		if n2.HasFile(probe.path) != probe.want {
			t.Errorf("HasFile(%s) = %v, want %v", probe.path, !probe.want, probe.want)
		}
	}
}

func TestRecoverRejectsForeignSnapshot(t *testing.T) {
	dir := t.TempDir()
	n, l, _, err := Recover(1, testConfig(), dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := n.MarshalSnapshot()
	if err := l.Snapshot(blob); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, _, _, err := Recover(9, testConfig(), dir, wal.Options{}); err == nil ||
		!strings.Contains(err.Error(), "belongs to MDS 1") {
		t.Fatalf("foreign snapshot: err = %v", err)
	}
}

// snapshotCountAt is the offset of a snapshot's file-record count: after
// the fixed header and the two length-prefixed filters.
func snapshotCountAt(blob []byte) int {
	off := 4 + 1 + 4 + 8 // magic, version, id, deletes
	for range 2 {
		off += 4 + int(binary.BigEndian.Uint32(blob[off:]))
	}
	return off
}

// forgedSnapshots returns a valid snapshot of a node holding /a and /b,
// and four blobs to refuse: a count of 0xFFFFFFFF, which used to size an
// allocation before anything else was checked and killed the process out
// of memory; /b renamed /a, a repeated path that used to load as one file;
// /b renamed /0, paths out of order; and the same node in the version-1
// layout, which also carried an inode counter and 36 attribute bytes per
// record.
func forgedSnapshots(t testing.TB, cfg Config) (valid []byte, forged map[string][]byte) {
	n, err := NewNode(1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.AddFile("/a")
	n.AddFile("/b")
	valid, err = n.MarshalSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	at := snapshotCountAt(valid)
	if got := binary.BigEndian.Uint32(valid[at:]); got != 2 {
		t.Fatalf("count field reads %d, want 2", got)
	}
	// Each record here is a 2-byte length and a 2-byte path.
	second := at + 4 + (snapshotRecordMin + 2) + 2
	if string(valid[second:second+2]) != "/b" {
		t.Fatalf("second record's path reads %q, want /b", valid[second:second+2])
	}
	patch := func(off int, b []byte) []byte {
		out := append([]byte{}, valid...)
		copy(out[off:], b)
		return out
	}
	// Version 1 wrote the same node with the inode counter before the
	// count and each record's attributes after its path, as PutPath set
	// them: size 0, mode 0644, uid 0, gid 0, mtime the zero time (as
	// math.MinInt64 nanoseconds), then the inode number.
	v1 := append([]byte{}, valid[:at]...)
	v1[4] = 1
	v1 = binary.BigEndian.AppendUint64(v1, 2)
	v1 = append(v1, valid[at:at+4]...)
	for ino, p := range []string{"/a", "/b"} {
		v1 = binary.BigEndian.AppendUint16(v1, uint16(len(p)))
		v1 = append(v1, p...)
		v1 = binary.BigEndian.AppendUint64(v1, 0)
		v1 = binary.BigEndian.AppendUint32(v1, 0o644)
		v1 = binary.BigEndian.AppendUint32(v1, 0)
		v1 = binary.BigEndian.AppendUint32(v1, 0)
		v1 = binary.BigEndian.AppendUint64(v1, 1<<63)
		v1 = binary.BigEndian.AppendUint64(v1, uint64(ino+1))
	}
	return valid, map[string][]byte{
		"count 0xFFFFFFFF": patch(at, []byte{0xff, 0xff, 0xff, 0xff}),
		"repeated path":    patch(second, []byte("/a")),
		"descending paths": patch(second, []byte("/0")),
		"version 1":        v1,
	}
}

// TestSnapshotRejectsForgery: each forgery is ErrBadSnapshot, and the
// refusing node keeps its own store.
func TestSnapshotRejectsForgery(t *testing.T) {
	valid, forged := forgedSnapshots(t, testConfig())
	for name, blob := range forged {
		m, _ := NewNode(1, testConfig())
		m.AddFile("/kept")
		if err := m.UnmarshalSnapshot(blob); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: err = %v, want ErrBadSnapshot", name, err)
		}
		if !m.HasFile("/kept") || m.FileCount() != 1 {
			t.Errorf("%s: refused snapshot changed the store", name)
		}
	}
	m, _ := NewNode(1, testConfig())
	if err := m.UnmarshalSnapshot(valid); err != nil || m.FileCount() != 2 {
		t.Fatalf("unforged snapshot: %v, %d files", err, m.FileCount())
	}
}

// FuzzSnapshotUnmarshal hammers the decoder: arbitrary bytes must never
// panic, and any blob a node accepts must reach a fixed point — its
// re-marshalled form loads again and re-marshals to the same bytes.
func FuzzSnapshotUnmarshal(f *testing.F) {
	cfg := Config{ExpectedFiles: 10, BitsPerFile: 8, LRUCapacity: 8, LRUBitsPerFile: 8}
	n, _ := NewNode(1, cfg)
	n.AddFile("/seed")
	blob, _ := n.MarshalSnapshot()
	f.Add(blob)
	f.Add([]byte{})
	f.Add(blob[:len(blob)/2])
	valid, forged := forgedSnapshots(f, cfg)
	f.Add(valid)
	for _, b := range forged {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, _ := NewNode(1, cfg)
		if err := m.UnmarshalSnapshot(data); err != nil {
			return
		}
		again, err := m.MarshalSnapshot()
		if err != nil {
			t.Fatalf("accepted blob does not re-marshal: %v", err)
		}
		m2, _ := NewNode(1, cfg)
		if err := m2.UnmarshalSnapshot(again); err != nil {
			t.Fatalf("re-marshalled blob rejected: %v", err)
		}
		third, err := m2.MarshalSnapshot()
		if err != nil {
			t.Fatalf("re-loaded blob does not re-marshal: %v", err)
		}
		if !bytes.Equal(third, again) {
			t.Fatalf("no fixed point: re-marshalling changed %d bytes to %d", len(again), len(third))
		}
	})
}

// TestRecoverMixedAppendPrefix cuts one interleaved create/delete append — a
// daemon's mutation round, with a create, a delete and a re-create of one
// path — at every byte: the WAL frames each record separately, so Recover
// must rebuild exactly the state of the records wholly on disk, in order.
func TestRecoverMixedAppendPrefix(t *testing.T) {
	cfg := testConfig()
	dir := t.TempDir()
	_, l, _, err := Recover(4, cfg, dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pre := []wal.Record{{Op: wal.OpCreate, Path: "/pre/a"}, {Op: wal.OpCreate, Path: "/pre/b"}}
	round := []wal.Record{
		{Op: wal.OpCreate, Path: "/m/x"},
		{Op: wal.OpDelete, Path: "/pre/a"},
		{Op: wal.OpDelete, Path: "/m/x"},
		{Op: wal.OpCreate, Path: "/m/y"},
		{Op: wal.OpCreate, Path: "/m/x"},
		{Op: wal.OpDelete, Path: "/pre/b"},
		{Op: wal.OpDelete, Path: "/m/y"},
	}
	if err := l.Append(pre...); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v (%v), want one", segs, err)
	}
	before, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(round...); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// ends[k] is the segment length once the round's first k records are on
	// disk: each frame is len | crc | op | path.
	ends := []int{int(before.Size())}
	for _, r := range round {
		ends = append(ends, ends[len(ends)-1]+8+1+len(r.Path))
	}
	if ends[len(round)] != len(data) {
		t.Fatalf("segment holds %d bytes, the frames account for %d", len(data), ends[len(round)])
	}

	for cut := ends[0]; cut <= len(data); cut++ {
		whole := 0
		for whole < len(round) && ends[whole+1] <= cut {
			whole++
		}
		want, err := NewNode(4, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range append(append([]wal.Record{}, pre...), round[:whole]...) {
			if r.Op == wal.OpCreate {
				want.AddFile(r.Path)
			} else {
				want.DeleteFile(r.Path)
			}
		}
		d := t.TempDir()
		if err := os.WriteFile(filepath.Join(d, filepath.Base(segs[0])), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, gl, info, err := Recover(4, cfg, d, wal.Options{})
		if err != nil {
			t.Fatalf("cut at byte %d: %v", cut, err)
		}
		gl.Close()
		if info.Torn != (cut != ends[whole]) || info.Replayed != len(pre)+whole {
			t.Errorf("cut at byte %d: %+v, want %d records replayed, torn %v", cut, info, len(pre)+whole, cut != ends[whole])
		}
		if got.FileCount() != want.FileCount() {
			t.Errorf("cut at byte %d: %d files, the first %d records leave %d", cut, got.FileCount(), whole, want.FileCount())
		}
		for _, p := range []string{"/pre/a", "/pre/b", "/m/x", "/m/y"} {
			if got.HasFile(p) != want.HasFile(p) {
				t.Errorf("cut at byte %d: HasFile(%s) = %v after the first %d records", cut, p, got.HasFile(p), whole)
			}
		}
		if drift, err := got.LocalFilter().XorBits(want.LocalFilter()); err != nil || drift != 0 {
			t.Errorf("cut at byte %d: local filter %d bits from the first %d records' (%v)", cut, drift, whole, err)
		}
	}
}

// pinnedNode builds the fixed node whose snapshot TestSnapshotFormatPinned
// pins: a delete and a ship behind it, a create after the ship.
func pinnedNode(t *testing.T) *Node {
	t.Helper()
	n, err := NewNode(3, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	n.AddFile("/full")
	for i := 0; i < 20; i++ {
		n.AddFile(fmt.Sprintf("/f/%d", i))
	}
	n.DeleteFile("/f/10")
	n.Ship()
	n.AddFile("/late")
	return n
}

// TestSnapshotFormatPinned pins the snapshot bytes of a fixed node: a data
// directory written by one build must load under the next, so an encoder or
// decoder change may not move a byte of the format.
func TestSnapshotFormatPinned(t *testing.T) {
	blob, err := pinnedNode(t).MarshalSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	const want = "cc0a8f8ad06857ae667d9d7b1fcd0f7e184976d459e59aa17f6677f533e0f1f1"
	if got := fmt.Sprintf("%x", sha256.Sum256(blob)); got != want {
		t.Errorf("snapshot of the pinned node hashes to %s, want %s", got, want)
	}
}

// TestSnapshotLoadOwnsItsBytes overwrites a blob after loading it: the
// restored store and filters must not change, because the decoder reads
// through a cursor that aliases the blob and every retained value copies.
func TestSnapshotLoadOwnsItsBytes(t *testing.T) {
	n := pinnedNode(t)
	blob, err := n.MarshalSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	back, _ := NewNode(3, testConfig())
	if err := back.UnmarshalSnapshot(blob); err != nil {
		t.Fatal(err)
	}
	for i := range blob {
		blob[i] = 0xa5
	}
	want, got := n.Store().Paths(), back.Store().Paths()
	if !slices.Equal(got, want) {
		t.Errorf("restored store changed with its blob:\n got %+v\nwant %+v", got, want)
	}
	if !back.LocalFilter().Equal(n.LocalFilter()) || !back.Shipped().Equal(n.Shipped()) {
		t.Error("restored filters changed with their blob")
	}
}

// TestNewNodeRefusesIDBeyondUint32 pins the ID range: snapshots and
// heartbeats carry the ID as a uint32, so an ID outside it would write
// snapshots its own restart refuses (-1 reads back as 4294967295) or
// another daemon accepts (2^32 reads back as 0).
func TestNewNodeRefusesIDBeyondUint32(t *testing.T) {
	if uint64(math.MaxInt) <= math.MaxUint32 {
		t.Skip("an int cannot exceed the range on this platform")
	}
	top := uint64(math.MaxUint32) // a variable, so the conversions compile where an int is 32 bits
	for _, id := range []int{-1, int(top + 1)} {
		if _, err := NewNode(id, testConfig()); err == nil {
			t.Errorf("NewNode(%d) accepted", id)
		}
		if _, _, _, err := Recover(id, testConfig(), t.TempDir(), wal.Options{}); err == nil {
			t.Errorf("Recover(%d) accepted", id)
		}
	}
	n, err := NewNode(int(top), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := n.MarshalSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	back, _ := NewNode(int(top), testConfig())
	if err := back.UnmarshalSnapshot(blob); err != nil {
		t.Fatalf("the largest ID does not reload its own snapshot: %v", err)
	}
}
