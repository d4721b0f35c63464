package ghba

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"ghba/internal/proto"
)

// startDurablePrototype boots a small durable TCP prototype.
func startDurablePrototype(t *testing.T, n int) *Prototype {
	t.Helper()
	p, err := StartPrototype(PrototypeConfig{
		Config: Config{
			NumMDS:              n,
			MaxGroupSize:        2,
			ExpectedFilesPerMDS: 1_000,
			Seed:                7,
		},
		DataDir:       t.TempDir(),
		SnapshotEvery: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// TestPrototypeKillRestart drives the facade's crash/recover surface: a
// killed daemon refuses RPCs, RestartMDS recovers its files from the WAL in
// place, and every path still resolves to its ground-truth home.
func TestPrototypeKillRestart(t *testing.T) {
	p := startDurablePrototype(t, 4)
	ctx := context.Background()
	paths := make([]string, 120)
	for i := range paths {
		paths[i] = fmt.Sprintf("/dur/f%d", i)
		if _, err := p.Apply(ctx, Op{Kind: OpCreate, Path: paths[i]}); err != nil {
			t.Fatal(err)
		}
	}
	victim := p.MDSIDs()[1]
	if err := p.KillMDS(victim); err != nil {
		t.Fatal(err)
	}
	rep, err := p.RestartMDS(ctx, victim)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rejoined {
		t.Error("in-place restart reported a rejoin")
	}
	if rep.TailLost != 0 {
		t.Errorf("in-process kill lost %d tail files; the page cache should survive", rep.TailLost)
	}
	for _, path := range paths {
		res, err := p.Lookup(ctx, path)
		if err != nil {
			t.Fatalf("lookup %s after restart: %v", path, err)
		}
		if !res.Found || res.Home != p.HomeOf(path) {
			t.Fatalf("lookup %s after restart: got (found=%v home=%d), want home %d",
				path, res.Found, res.Home, p.HomeOf(path))
		}
	}
	// The namespace half of the guarantee: what the daemons store — the
	// recovered one included — sums to what ground truth homes.
	stored := 0
	for _, id := range p.MDSIDs() {
		info, err := p.Cluster().Heartbeat(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		stored += int(info.Files)
	}
	if stored != p.FileCount() {
		t.Errorf("daemons store %d files after restart, ground truth homes %d", stored, p.FileCount())
	}
}

// TestPrototypeFailMDS pins the Reconfigurer contract the facade now
// honours: FailMDS removes a daemon, reports the files lost, and shrinks
// membership.
func TestPrototypeFailMDS(t *testing.T) {
	p := startDurablePrototype(t, 3)
	ctx := context.Background()
	for i := 0; i < 90; i++ {
		if _, err := p.Apply(ctx, Op{Kind: OpCreate, Path: fmt.Sprintf("/fail/f%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	victim := p.MDSIDs()[0]
	homed := 0
	for i := 0; i < 90; i++ {
		if p.HomeOf(fmt.Sprintf("/fail/f%d", i)) == victim {
			homed++
		}
	}
	lost, err := p.FailMDS(ctx, victim)
	if err != nil {
		t.Fatal(err)
	}
	if lost != homed {
		t.Errorf("FailMDS reported %d files lost, ground truth homed %d", lost, homed)
	}
	if got := p.NumMDS(); got != 2 {
		t.Errorf("NumMDS after failover = %d, want 2", got)
	}
	// A failed-over daemon rejoins through RestartMDS and re-claims its log.
	rep, err := p.RestartMDS(ctx, victim)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Rejoined {
		t.Error("restart after failover did not rejoin")
	}
	if rep.FilesReclaimed != lost {
		t.Errorf("reclaimed %d files, want the %d lost", rep.FilesReclaimed, lost)
	}
}

// TestPrototypeDetectorSurface checks the facade detector handle: started,
// queried, stopped — with no kills, every daemon stays alive and no
// failover runs.
func TestPrototypeDetectorSurface(t *testing.T) {
	p := startDurablePrototype(t, 3)
	det := p.StartDetector(proto.DetectorOptions{Interval: 10 * time.Millisecond})
	time.Sleep(60 * time.Millisecond)
	det.Stop()
	if det.Failovers() != 0 {
		t.Errorf("idle detector ran %d failovers", det.Failovers())
	}
	for _, id := range p.MDSIDs() {
		if got := det.State(id); got.String() != "alive" {
			t.Errorf("MDS %d state %v, want alive", id, got)
		}
	}
}

// TestCreateAllReportsSnapshotFailure loses one daemon's log directory (as a
// full or failed disk would lose its writes) before a bulk load: CreateAll
// must return an error naming that daemon instead of panicking, the other
// daemons must still get their snapshots, the load must be served, and Close
// must still work.
func TestCreateAllReportsSnapshotFailure(t *testing.T) {
	dir := t.TempDir()
	p, err := StartPrototype(PrototypeConfig{
		Config:  Config{NumMDS: 3, MaxGroupSize: 2, ExpectedFilesPerMDS: 1_000, Seed: 7},
		DataDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	snapshots := func(id int) []string {
		names, err := filepath.Glob(filepath.Join(dir, fmt.Sprintf("mds-%d", id), "snap-*.snap"))
		if err != nil {
			t.Fatal(err)
		}
		return names
	}
	before := [][]string{snapshots(0), nil, snapshots(2)}
	if err := os.RemoveAll(filepath.Join(dir, "mds-1")); err != nil {
		t.Fatal(err)
	}

	paths := make([]string, 90)
	for i := range paths {
		paths[i] = fmt.Sprintf("/bulk/f%d", i)
	}
	err = p.CreateAll(context.Background(), paths)
	if err == nil || !strings.Contains(err.Error(), "MDS 1") {
		t.Fatalf("CreateAll with mds-1 gone: err = %v, want one naming MDS 1", err)
	}
	if strings.Contains(err.Error(), "MDS 0") || strings.Contains(err.Error(), "MDS 2") {
		t.Errorf("CreateAll blamed a healthy daemon: %v", err)
	}
	for _, id := range []int{0, 2} {
		if after := snapshots(id); len(after) == 0 || slices.Equal(after, before[id]) {
			t.Errorf("MDS %d: no snapshot written after the load (before %v, after %v)", id, before[id], after)
		}
	}
	if p.FileCount() != len(paths) {
		t.Errorf("FileCount = %d, want %d", p.FileCount(), len(paths))
	}
	if res, err := p.Lookup(context.Background(), paths[0]); err != nil || !res.Found {
		t.Errorf("lookup after the failed snapshot: %+v, %v", res, err)
	}
	if err := p.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}
