package wal

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func mustOpen(t *testing.T, dir string, opts Options) (*Log, *Recovery) {
	t.Helper()
	l, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l, rec
}

func rec(op uint8, path string) Record { return Record{Op: op, Path: path} }

func TestAppendReopenReplay(t *testing.T) {
	dir := t.TempDir()
	l, r := mustOpen(t, dir, Options{})
	if r.Snapshot != nil || len(r.Records) != 0 || r.Torn {
		t.Fatalf("fresh dir recovered non-empty state: %+v", r)
	}
	want := []Record{
		rec(OpCreate, "/a"),
		rec(OpCreate, "/b/c"),
		rec(OpDelete, "/a"),
		rec(OpCreate, ""),
	}
	for _, w := range want[:2] {
		if err := l.Append(w); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	// Batch append for the rest.
	if err := l.Append(want[2], want[3]); err != nil {
		t.Fatalf("Append batch: %v", err)
	}
	if got := l.RecordsSinceSnapshot(); got != 4 {
		t.Fatalf("RecordsSinceSnapshot = %d, want 4", got)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, r2 := mustOpen(t, dir, Options{})
	defer l2.Close()
	if !reflect.DeepEqual(r2.Records, want) {
		t.Fatalf("replay got %v, want %v", r2.Records, want)
	}
	if r2.Torn || r2.Snapshot != nil {
		t.Fatalf("unexpected recovery flags: %+v", r2)
	}
	// Appends after reopen extend the same history.
	if err := l2.Append(rec(OpDelete, "/b/c")); err != nil {
		t.Fatalf("Append after reopen: %v", err)
	}
	l2.Close()
	_, r3 := mustOpen(t, dir, Options{})
	if len(r3.Records) != 5 || r3.Records[4].Path != "/b/c" {
		t.Fatalf("post-reopen append lost: %v", r3.Records)
	}
}

func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	for i := 0; i < 10; i++ {
		if err := l.Append(rec(OpCreate, fmt.Sprintf("/f%d", i))); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	state := []byte("state-after-ten")
	if err := l.Snapshot(state); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if got := l.RecordsSinceSnapshot(); got != 0 {
		t.Fatalf("RecordsSinceSnapshot after snapshot = %d", got)
	}
	// Tail records after the snapshot.
	if err := l.Append(rec(OpDelete, "/f3")); err != nil {
		t.Fatalf("Append tail: %v", err)
	}
	l.Close()

	l2, r := mustOpen(t, dir, Options{})
	defer l2.Close()
	if string(r.Snapshot) != string(state) {
		t.Fatalf("snapshot payload = %q, want %q", r.Snapshot, state)
	}
	if r.SnapshotSeq != 1 {
		t.Fatalf("SnapshotSeq = %d, want 1", r.SnapshotSeq)
	}
	wantTail := []Record{rec(OpDelete, "/f3")}
	if !reflect.DeepEqual(r.Records, wantTail) {
		t.Fatalf("tail = %v, want %v", r.Records, wantTail)
	}
	// The superseded segment must be gone.
	if _, err := os.Stat(filepath.Join(dir, segmentName(1))); !os.IsNotExist(err) {
		t.Fatalf("segment 1 not purged: %v", err)
	}
}

func TestRepeatedSnapshotsPurgeOldOnes(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if err := l.Append(rec(OpCreate, fmt.Sprintf("/round%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := l.Snapshot([]byte(fmt.Sprintf("state%d", i))); err != nil {
			t.Fatalf("Snapshot %d: %v", i, err)
		}
	}
	l.Close()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var snaps, segs int
	for _, e := range entries {
		if _, ok := parseSeq(e.Name(), "snap-", ".snap"); ok {
			snaps++
		}
		if _, ok := parseSeq(e.Name(), "wal-", ".log"); ok {
			segs++
		}
	}
	if snaps != 1 || segs != 1 {
		t.Fatalf("after 5 snapshots: %d snaps, %d segments (want 1, 1)", snaps, segs)
	}
	_, r := mustOpen(t, dir, Options{})
	if string(r.Snapshot) != "state4" || len(r.Records) != 0 {
		t.Fatalf("recovered %q + %d records", r.Snapshot, len(r.Records))
	}
}

func TestSyncPolicies(t *testing.T) {
	for name, pol := range map[string]SyncPolicy{"always": SyncAlways, "never": SyncNever} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			l, _ := mustOpen(t, dir, Options{Sync: pol})
			for i := 0; i < 20; i++ {
				if err := l.Append(rec(OpCreate, fmt.Sprintf("/p%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			// Abandon simulates SIGKILL: no flush on the way out. Writes
			// still reached the kernel, so an in-process reopen sees them
			// under every policy.
			if err := l.Abandon(); err != nil {
				t.Fatal(err)
			}
			_, r := mustOpen(t, dir, Options{})
			if len(r.Records) != 20 {
				t.Fatalf("policy %v: recovered %d records, want 20", pol, len(r.Records))
			}
		})
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
		err  bool
	}{
		{"always", SyncAlways, false},
		{"", SyncAlways, false},
		{"never", SyncNever, false},
		{"interval", 0, true},
		{"sometimes", 0, true},
	} {
		got, err := ParseSyncPolicy(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("ParseSyncPolicy(%q) = (%v, %v), want (%v, err=%v)", tc.in, got, err, tc.want, tc.err)
		}
	}
}

func TestAppendAfterClose(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	l.Close()
	if err := l.Append(rec(OpCreate, "/x")); err == nil {
		t.Fatal("Append after Close succeeded")
	}
	if err := l.Snapshot(nil); err == nil {
		t.Fatal("Snapshot after Close succeeded")
	}
}

func TestBadRecordRejected(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	defer l.Close()
	if err := l.Append(Record{Op: 99, Path: "/x"}); err == nil {
		t.Fatal("unknown op accepted")
	}
}

// seedSegment builds a directory whose single segment holds the given
// records and returns the segment path plus the raw bytes.
func seedSegment(t *testing.T, records []Record) (dir, seg string, data []byte) {
	t.Helper()
	dir = t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	if err := l.Append(records...); err != nil {
		t.Fatal(err)
	}
	l.Close()
	seg = filepath.Join(dir, segmentName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	return dir, seg, data
}

// TestTortureTruncate truncates the segment at every byte offset and
// asserts recovery replays exactly the records whose frames survived
// whole — never a partial or corrupt record, never an error.
func TestTortureTruncate(t *testing.T) {
	records := []Record{
		rec(OpCreate, "/alpha"),
		rec(OpDelete, "/alpha"),
		rec(OpCreate, "/beta/gamma"),
	}
	_, _, data := seedSegment(t, records)

	// Frame boundaries: prefix lengths at which exactly k records survive.
	bounds := []int{0}
	off := 0
	for _, r := range records {
		frame, _ := encodeRecord(r)
		off += len(frame)
		bounds = append(bounds, off)
	}
	wantAt := func(n int) []Record {
		k := 0
		for k+1 < len(bounds) && bounds[k+1] <= n {
			k++
		}
		return records[:k]
	}

	for cut := 0; cut <= len(data); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, r, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut=%d: Open failed: %v", cut, err)
		}
		want := wantAt(cut)
		if len(r.Records) != len(want) || (len(want) > 0 && !reflect.DeepEqual(r.Records, want)) {
			t.Fatalf("cut=%d: got %v, want %v", cut, r.Records, want)
		}
		wantTorn := cut != 0 && cut != bounds[len(bounds)-1] &&
			func() bool { // torn iff cut is not exactly on a frame boundary
				for _, b := range bounds {
					if b == cut {
						return false
					}
				}
				return true
			}()
		if r.Torn != wantTorn {
			t.Fatalf("cut=%d: Torn=%v, want %v", cut, r.Torn, wantTorn)
		}
		// The log must keep working after tail truncation.
		if err := l.Append(rec(OpCreate, "/after")); err != nil {
			t.Fatalf("cut=%d: append after recovery: %v", cut, err)
		}
		l.Close()
		_, r2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut=%d: second Open: %v", cut, err)
		}
		if len(r2.Records) != len(want)+1 || r2.Records[len(want)].Path != "/after" {
			t.Fatalf("cut=%d: post-truncate append not replayed: %v", cut, r2.Records)
		}
	}
}

// TestTortureBitFlip flips every bit of the segment and asserts recovery
// never yields a record that was not appended: either the CRC catches the
// flip (shorter replay, torn tail) or the flip landed in a frame that
// still decodes — which can only happen if the flip produced a colliding
// CRC, which Castagnoli makes impossible for single-bit flips.
func TestTortureBitFlip(t *testing.T) {
	records := []Record{
		rec(OpCreate, "/alpha"),
		rec(OpDelete, "/alpha"),
		rec(OpCreate, "/beta/gamma"),
	}
	_, _, data := seedSegment(t, records)

	for pos := 0; pos < len(data); pos++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), data...)
			mut[pos] ^= 1 << bit
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, segmentName(1)), mut, 0o644); err != nil {
				t.Fatal(err)
			}
			_, r, err := Open(dir, Options{})
			if err != nil {
				// A flip in a length field can masquerade as a huge frame;
				// that reads as a torn tail, not an error. No flip should
				// fail Open for a single-segment directory.
				t.Fatalf("pos=%d bit=%d: Open failed: %v", pos, bit, err)
			}
			// Every replayed record must be a strict prefix of the original
			// history — a flipped record must never survive.
			if len(r.Records) > len(records) {
				t.Fatalf("pos=%d bit=%d: replayed %d records from a %d-record log", pos, bit, len(r.Records), len(records))
			}
			for i, got := range r.Records {
				if got != records[i] {
					t.Fatalf("pos=%d bit=%d: record %d corrupted to %+v", pos, bit, i, got)
				}
			}
			if len(r.Records) < len(records) && !r.Torn {
				t.Fatalf("pos=%d bit=%d: lost records without Torn flag", pos, bit)
			}
		}
	}
}

// TestSnapshotCorruption covers the fail-loud side: damage to the newest
// snapshot must refuse recovery, because older snapshots were purged and
// silently starting empty would resurrect deleted files.
func TestSnapshotCorruption(t *testing.T) {
	build := func(t *testing.T) (string, string) {
		dir := t.TempDir()
		l, _ := mustOpen(t, dir, Options{})
		if err := l.Append(rec(OpCreate, "/a")); err != nil {
			t.Fatal(err)
		}
		if err := l.Snapshot([]byte("good-state")); err != nil {
			t.Fatal(err)
		}
		l.Close()
		return dir, filepath.Join(dir, snapshotName(1))
	}

	t.Run("bitflip", func(t *testing.T) {
		dir, snap := build(t)
		data, err := os.ReadFile(snap)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] ^= 0x40
		if err := os.WriteFile(snap, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("corrupt snapshot: Open = %v, want ErrCorrupt", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		dir, snap := build(t)
		if err := os.Truncate(snap, 10); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncated snapshot: Open = %v, want ErrCorrupt", err)
		}
	})
}

// TestInteriorCorruptionFailsLoudly pins the crash-window analysis: every
// non-final segment was fsynced whole before its successor existed, so a
// torn interior segment can only mean real corruption — recovery must
// refuse, not silently skip records.
func TestInteriorCorruptionFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	if err := l.Append(rec(OpCreate, "/one")); err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot([]byte("s1")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec(OpCreate, "/two")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Build a second segment after seg 2 by hand so seg 2 becomes interior.
	seg3 := filepath.Join(dir, segmentName(3))
	frame, _ := encodeRecord(rec(OpCreate, "/three"))
	if err := os.WriteFile(seg3, frame, 0o644); err != nil {
		t.Fatal(err)
	}
	// Remove the snapshot so both segments replay... no: snapshot covers
	// seg 1 only, segments 2 and 3 both replay. Corrupt seg 2's tail.
	seg2 := filepath.Join(dir, segmentName(2))
	data, err := os.ReadFile(seg2)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg2, int64(len(data)-1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("interior torn segment: Open = %v, want ErrCorrupt", err)
	}
}

func TestSegmentGapFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	if err := l.Append(rec(OpCreate, "/one")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Fabricate segment 3 with no segment 2.
	frame, _ := encodeRecord(rec(OpCreate, "/skip"))
	if err := os.WriteFile(filepath.Join(dir, segmentName(3)), frame, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("segment gap: Open = %v, want ErrCorrupt", err)
	}
}

// TestSnapshotCrashPoints simulates a crash between every pair of steps in
// the Snapshot sequence by reconstructing the directory state each crash
// would leave, and asserts Open recovers a consistent history from each.
func TestSnapshotCrashPoints(t *testing.T) {
	// Full history: 2 records, snapshot("S"), 1 record.
	r1, r2, r3 := rec(OpCreate, "/a"), rec(OpCreate, "/b"), rec(OpDelete, "/a")
	f1, _ := encodeRecord(r1)
	f2, _ := encodeRecord(r2)
	f3, _ := encodeRecord(r3)
	seg1 := append(append([]byte{}, f1...), f2...)

	snapFrame := func(seq uint64, state []byte) []byte {
		payload := make([]byte, 8+len(state))
		for i := 0; i < 8; i++ {
			payload[7-i] = byte(seq >> (8 * i))
		}
		copy(payload[8:], state)
		fr := make([]byte, 8+len(payload))
		fr[0] = byte(len(payload) >> 24)
		fr[1] = byte(len(payload) >> 16)
		fr[2] = byte(len(payload) >> 8)
		fr[3] = byte(len(payload))
		c := crc32Checksum(payload)
		fr[4], fr[5], fr[6], fr[7] = byte(c>>24), byte(c>>16), byte(c>>8), byte(c)
		copy(fr[8:], payload)
		return fr
	}

	type state struct {
		name  string
		files map[string][]byte
		// wantSnap is the expected recovered snapshot payload ("" = none);
		// wantRecords the expected replay tail.
		wantSnap    string
		wantRecords []Record
	}
	states := []state{
		{
			// Crash after step 1 (segment fsynced, nothing else): plain log.
			name:        "before-next-segment",
			files:       map[string][]byte{segmentName(1): seg1},
			wantRecords: []Record{r1, r2},
		},
		{
			// Crash after step 2: empty next segment exists, no snapshot.
			name:        "next-segment-no-snapshot",
			files:       map[string][]byte{segmentName(1): seg1, segmentName(2): {}},
			wantRecords: []Record{r1, r2},
		},
		{
			// Crash mid-step 3: .tmp written but never renamed.
			name: "tmp-not-renamed",
			files: map[string][]byte{
				segmentName(1):           seg1,
				segmentName(2):           {},
				snapshotName(1) + ".tmp": snapFrame(1, []byte("S")),
			},
			wantRecords: []Record{r1, r2},
		},
		{
			// Crash after rename, before purge: both snapshot and old
			// segment exist — snapshot wins, old segment ignored.
			name: "renamed-not-purged",
			files: map[string][]byte{
				segmentName(1):  seg1,
				segmentName(2):  f3,
				snapshotName(1): snapFrame(1, []byte("S")),
			},
			wantSnap:    "S",
			wantRecords: []Record{r3},
		},
		{
			// Clean completion.
			name: "complete",
			files: map[string][]byte{
				segmentName(2):  f3,
				snapshotName(1): snapFrame(1, []byte("S")),
			},
			wantSnap:    "S",
			wantRecords: []Record{r3},
		},
	}

	for _, st := range states {
		t.Run(st.name, func(t *testing.T) {
			dir := t.TempDir()
			for name, data := range st.files {
				if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			l, r, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer l.Close()
			if string(r.Snapshot) != st.wantSnap {
				t.Fatalf("snapshot = %q, want %q", r.Snapshot, st.wantSnap)
			}
			want := st.wantRecords
			if len(r.Records) != len(want) || (len(want) > 0 && !reflect.DeepEqual(r.Records, want)) {
				t.Fatalf("records = %v, want %v", r.Records, want)
			}
			// Whatever state we crashed in, the reopened log must accept a
			// fresh append and a fresh snapshot.
			if err := l.Append(rec(OpCreate, "/recovered")); err != nil {
				t.Fatalf("append after crash recovery: %v", err)
			}
			if err := l.Snapshot([]byte("S2")); err != nil {
				t.Fatalf("snapshot after crash recovery: %v", err)
			}
		})
	}
}

func crc32Checksum(p []byte) uint32 {
	return crc32.Checksum(p, crc32.MakeTable(crc32.Castagnoli))
}

// FuzzSegmentRecovery feeds arbitrary bytes as a segment file: Open must
// never panic, never error (single segment ⇒ any damage is a legal torn
// tail), and every replayed record must re-encode to a prefix of the input.
func FuzzSegmentRecovery(f *testing.F) {
	good, _ := encodeRecord(rec(OpCreate, "/seed"))
	f.Add([]byte{})
	f.Add(good)
	f.Add(append(good, 0x00, 0x01, 0x02))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, r, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open on fuzzed segment: %v", err)
		}
		defer l.Close()
		// Re-encode the replayed records: they must reproduce a byte prefix
		// of the input — recovery returns a prefix of history, nothing else.
		var prefix []byte
		for _, rc := range r.Records {
			frame, err := encodeRecord(rc)
			if err != nil {
				t.Fatalf("replayed record does not re-encode: %v", err)
			}
			prefix = append(prefix, frame...)
		}
		if len(prefix) > len(data) || string(data[:len(prefix)]) != string(prefix) {
			t.Fatalf("replayed records are not a prefix of the segment")
		}
	})
}

// TestFormatPinned pins the bytes of a fixed segment and a fixed snapshot
// file: a directory written by one build must recover under the next, so
// no change to the frame writer or reader may move one of their bytes.
func TestFormatPinned(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Sync: SyncNever})
	defer l.Close()
	if err := l.Append(rec(OpCreate, "/a"), rec(OpCreate, ""), rec(OpDelete, "/a"), rec(OpCreate, "/b/c")); err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	read := func(name string) {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		files[name] = data
	}
	read(segmentName(1))
	if err := l.Snapshot([]byte("pinned state")); err != nil {
		t.Fatal(err)
	}
	read(snapshotName(1))
	for name, want := range map[string]string{
		segmentName(1):  "19e1d29d0e83eaa74d6ffcb33db374ae6c39609295c646ab9861e9389136d16f",
		snapshotName(1): "8d8e6b050d8ee5cacf2f4d797f20febbd1dfcdfb7dfd38535decfe7e743a6dc1",
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(files[name])); got != want {
			t.Errorf("%s hashes to %s, want %s", name, got, want)
		}
	}
}
