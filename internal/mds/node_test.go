package mds

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"ghba/internal/bloom"
)

// digestOf hashes a path for the node's digest-form probes.
func digestOf(path string) *bloom.Digest {
	d := bloom.NewDigestString(path)
	return &d
}

func newTestNode(t *testing.T, id int) *Node {
	t.Helper()
	cfg := DefaultConfig()
	cfg.ExpectedFiles = 2000
	n, err := NewNode(id, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNewNodeValidation(t *testing.T) {
	bad := []Config{
		{ExpectedFiles: 0, BitsPerFile: 16, LRUCapacity: 10, LRUBitsPerFile: 16},
		{ExpectedFiles: 10, BitsPerFile: 0, LRUCapacity: 10, LRUBitsPerFile: 16},
		{ExpectedFiles: 10, BitsPerFile: 16, LRUCapacity: 0, LRUBitsPerFile: 16},
		{ExpectedFiles: 10, BitsPerFile: 16, LRUCapacity: 10, LRUBitsPerFile: 0},
	}
	for i, cfg := range bad {
		if _, err := NewNode(1, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestAddDeleteFile(t *testing.T) {
	n := newTestNode(t, 1)
	n.AddFile("/a")
	if !n.HasFile("/a") || !n.LocalPositiveDigest(digestOf("/a")) {
		t.Error("added file not visible")
	}
	if n.FileCount() != 1 {
		t.Errorf("FileCount = %d", n.FileCount())
	}
	if !n.DeleteFile("/a") {
		t.Error("DeleteFile returned false")
	}
	if n.HasFile("/a") {
		t.Error("deleted file still authoritative")
	}
	// Filter is stale (bits cannot be unset) until rebuild.
	if n.DeletesSinceRebuild() != 1 {
		t.Errorf("DeletesSinceRebuild = %d", n.DeletesSinceRebuild())
	}
	if n.DeleteFile("/never") {
		t.Error("deleting absent file returned true")
	}
}

func TestRebuildClearsStaleBits(t *testing.T) {
	n := newTestNode(t, 1)
	for i := 0; i < 100; i++ {
		n.AddFile("/keep" + strconv.Itoa(i))
	}
	for i := 0; i < 100; i++ {
		n.AddFile("/drop" + strconv.Itoa(i))
	}
	for i := 0; i < 100; i++ {
		n.DeleteFile("/drop" + strconv.Itoa(i))
	}
	if n.RebuildIfStale(101) {
		t.Fatal("rebuilt below the deletion threshold")
	}
	if !n.RebuildIfStale(100) {
		t.Fatal("no rebuild at the deletion threshold")
	}
	if n.DeletesSinceRebuild() != 0 {
		t.Error("rebuild did not reset delete counter")
	}
	for i := 0; i < 100; i++ {
		if !n.LocalPositiveDigest(digestOf("/keep" + strconv.Itoa(i))) {
			t.Fatalf("rebuild lost kept file %d", i)
		}
	}
	// Most dropped files must now answer negatively (allow Bloom FPs).
	stale := 0
	for i := 0; i < 100; i++ {
		if n.LocalPositiveDigest(digestOf("/drop" + strconv.Itoa(i))) {
			stale++
		}
	}
	if stale > 10 {
		t.Errorf("%d/100 deleted files still positive after rebuild", stale)
	}
}

// TestLocalProbesRacingRebuild races lock-free L4 probes against every
// writer of the published local filter: an insert, a delete and a rebuild
// per round, each round begun only after the probers have read the filter
// since the last. A rebuild must swap in a complete filter, never edit the
// one the probes loaded, so a file that stays present answers positively
// throughout; run under -race, an in-place edit also reports a data race.
func TestLocalProbesRacingRebuild(t *testing.T) {
	n := newTestNode(t, 1)
	const kept, probers, rounds = 64, 2, 200
	for i := 0; i < kept; i++ {
		n.AddFile("/kept/" + strconv.Itoa(i))
	}
	stop := make(chan struct{})
	var passes, misses atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < probers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A digest caches its positions, so each prober keys its own.
			digests := make([]*bloom.Digest, kept)
			for i := range digests {
				digests[i] = digestOf("/kept/" + strconv.Itoa(i))
			}
			for {
				for _, d := range digests {
					if !n.LocalPositiveDigest(d) {
						misses.Add(1)
					}
				}
				passes.Add(1)
				select {
				case <-stop:
					return
				default:
					runtime.Gosched()
				}
			}
		}()
	}
	for r := 0; r < rounds; r++ {
		for seen := passes.Load(); passes.Load() < seen+probers; {
			runtime.Gosched()
		}
		p := "/churn/" + strconv.Itoa(r)
		n.AddFile(p)
		n.DeleteFile(p)
		if !n.RebuildIfStale(1) {
			t.Errorf("round %d: no rebuild after a delete", r)
			break
		}
	}
	close(stop)
	wg.Wait()
	if m := misses.Load(); m != 0 {
		t.Errorf("%d probes missed a file that stayed present", m)
	}
}

func TestShipAndDeltaBits(t *testing.T) {
	n := newTestNode(t, 1)
	if n.DeltaBits() != 0 {
		t.Errorf("fresh node delta = %d", n.DeltaBits())
	}
	n.AddFile("/x")
	if n.DeltaBits() == 0 {
		t.Error("delta zero after mutation")
	}
	if !n.NeedsShip(1) {
		t.Error("NeedsShip(1) false after mutation")
	}
	snap := n.Ship()
	if !snap.ContainsDigest(digestOf("/x")) {
		t.Error("shipped snapshot missing file")
	}
	if n.DeltaBits() != 0 {
		t.Error("delta non-zero immediately after ship")
	}
	if n.NeedsShip(1) {
		t.Error("NeedsShip true after ship")
	}
	// Shipped snapshot is independent of future mutations.
	n.AddFile("/y")
	if snap.ContainsDigest(digestOf("/y")) && snap.Count() > 1 {
		t.Error("snapshot aliases live filter")
	}
}

func TestReplicaManagement(t *testing.T) {
	n := newTestNode(t, 1)
	f, err := bloom.NewForCapacity(100, 16)
	if err != nil {
		t.Fatal(err)
	}
	f.AddString("/remote/file")
	n.InstallReplica(7, f)
	if n.ReplicaCount() != 1 {
		t.Errorf("ReplicaCount = %d", n.ReplicaCount())
	}
	r := n.QueryL2Digest(digestOf("/remote/file"), nil)
	if id, ok := r.Unique(); !ok || id != 7 {
		t.Errorf("QueryL2 = %v, want unique 7", r.Hits)
	}
	if got := n.DropReplica(7); got != f {
		t.Error("DropReplica returned wrong filter")
	}
	if n.ReplicaCount() != 0 {
		t.Error("replica not dropped")
	}
	if n.DropReplica(7) != nil {
		t.Error("double drop returned non-nil")
	}
}

func TestQueryL2IncludesSelf(t *testing.T) {
	n := newTestNode(t, 5)
	n.AddFile("/mine")
	r := n.QueryL2Digest(digestOf("/mine"), nil)
	if id, ok := r.Unique(); !ok || id != 5 {
		t.Errorf("QueryL2 for own file = %v, want unique 5", r.Hits)
	}
}

func TestQueryL2SelfAndReplicaMultiHit(t *testing.T) {
	n := newTestNode(t, 5)
	n.AddFile("/dup")
	f, err := bloom.NewForCapacity(100, 16)
	if err != nil {
		t.Fatal(err)
	}
	f.AddString("/dup")
	n.InstallReplica(2, f)
	r := n.QueryL2Digest(digestOf("/dup"), nil)
	if !r.Multiple() {
		t.Fatalf("QueryL2 = %v, want multiple", r.Hits)
	}
	if r.Hits[0] != 2 || r.Hits[1] != 5 {
		t.Errorf("hits = %v, want [2 5]", r.Hits)
	}
}

// TestQueryL2DigestZeroAlloc pins the allocation contract of the daemon's L2
// leg: with a reused buffer, a query that folds the node's own ID between two
// replica hits allocates nothing, and neither does the local-filter probe.
func TestQueryL2DigestZeroAlloc(t *testing.T) {
	n := newTestNode(t, 5)
	n.AddFile("/dup")
	for _, origin := range []int{2, 7} {
		f, err := bloom.NewForCapacity(100, 16)
		if err != nil {
			t.Fatal(err)
		}
		f.AddString("/dup")
		n.InstallReplica(origin, f)
	}
	d := digestOf("/dup")
	buf := make([]int, 0, 4)
	if allocs := testing.AllocsPerRun(1_000, func() {
		if !n.LocalPositiveDigest(d) {
			t.Fatal("own file missed by the local filter")
		}
		buf = n.QueryL2Digest(d, buf).Hits
		if len(buf) != 3 || buf[1] != 5 {
			t.Fatalf("QueryL2Digest = %v, want [2 5 7]", buf)
		}
	}); allocs != 0 {
		t.Errorf("LocalPositiveDigest + QueryL2Digest allocate %.2f objects/op, want 0", allocs)
	}
}

func TestNodeAccessors(t *testing.T) {
	n := newTestNode(t, 42)
	if n.ID() != 42 {
		t.Errorf("ID = %d", n.ID())
	}
	if n.Store() == nil || n.Replicas() == nil || n.LocalFilter() == nil {
		t.Error("nil accessor")
	}
}

// TestLRUCapacityFor pins the one L1 sizing rule (files/16, floor 64) and
// that every capacity it yields builds a node: dividing without the floor
// refuses to build a node below 16 files.
func TestLRUCapacityFor(t *testing.T) {
	for _, tc := range []struct{ files, want uint64 }{
		{1, 64}, {15, 64}, {1023, 64}, {1024, 64}, {1040, 65}, {50_000, 3_125},
	} {
		got := LRUCapacityFor(tc.files)
		if got != tc.want {
			t.Errorf("LRUCapacityFor(%d) = %d, want %d", tc.files, got, tc.want)
		}
		cfg := Config{ExpectedFiles: tc.files, BitsPerFile: 16, LRUCapacity: got, LRUBitsPerFile: 16}
		if _, err := NewNode(0, cfg); err != nil {
			t.Errorf("files=%d: NewNode: %v", tc.files, err)
		}
	}
}
