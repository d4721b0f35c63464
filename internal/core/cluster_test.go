package core

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"ghba/internal/bloom"
	"ghba/internal/mds"
	"ghba/internal/trace"
)

// smallConfig returns a fast configuration for tests.
func smallConfig(n, m int) Config {
	cfg := DefaultConfig(n, m)
	cfg.Node = mds.Config{
		ExpectedFiles:  2_000,
		BitsPerFile:    16,
		LRUCapacity:    256,
		LRUBitsPerFile: 16,
	}
	return cfg
}

// newPopulated builds a cluster with files /fK for K in [0, files).
func newPopulated(t *testing.T, n, m, files int) *Cluster {
	t.Helper()
	c, err := New(smallConfig(n, m))
	if err != nil {
		t.Fatal(err)
	}
	c.Populate(func(fn func(string) bool) {
		for i := 0; i < files; i++ {
			if !fn("/f" + strconv.Itoa(i)) {
				return
			}
		}
	})
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(smallConfig(0, 5)); err == nil {
		t.Error("NumMDS 0 accepted")
	}
	if _, err := New(smallConfig(5, 0)); err == nil {
		t.Error("MaxGroupSize 0 accepted")
	}
	cfg := smallConfig(5, 2)
	cfg.CacheHitRate = 1.5
	if _, err := New(cfg); err == nil {
		t.Error("CacheHitRate 1.5 accepted")
	}
}

func TestNewTopology(t *testing.T) {
	c, err := New(smallConfig(10, 4))
	if err != nil {
		t.Fatal(err)
	}
	if c.NumMDS() != 10 {
		t.Errorf("NumMDS = %d", c.NumMDS())
	}
	// 10 MDSs in groups of ≤4 → 3 groups (4+4+2).
	if c.NumGroups() != 3 {
		t.Errorf("NumGroups = %d, want 3", c.NumGroups())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Errorf("invariants after New: %v", err)
	}
	if c.Name() != "G-HBA" {
		t.Errorf("Name = %q", c.Name())
	}
}

func TestGroupReplicaCounts(t *testing.T) {
	// N=12, M=4 → 3 groups of 4; each group holds 8 external replicas,
	// each member ~2 (θ = ⌊(N−M′)/M′⌋ = 2).
	c, err := New(smallConfig(12, 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range c.Layout().Groups() {
		total := 0
		for _, id := range g.Members {
			rc := c.Node(id).ReplicaCount()
			total += rc
			if rc < 1 || rc > 3 {
				t.Errorf("MDS %d holds %d replicas, want ≈2", id, rc)
			}
		}
		if total != 8 {
			t.Errorf("group %d holds %d replicas, want 8", g.ID, total)
		}
	}
}

func TestPopulateAndHomeOf(t *testing.T) {
	c := newPopulated(t, 6, 3, 500)
	if c.FileCount() != 500 {
		t.Errorf("FileCount = %d", c.FileCount())
	}
	if c.HomeOf("/f0") < 0 {
		t.Error("populated file has no home")
	}
	if c.HomeOf("/absent") != -1 {
		t.Error("absent file has a home")
	}
	home := c.HomeOf("/f123")
	if !c.Node(home).HasFile("/f123") {
		t.Error("ground truth disagrees with node store")
	}
	// Placement should be spread out: every MDS got some files.
	for _, id := range c.MDSIDs() {
		if c.Node(id).FileCount() == 0 {
			t.Errorf("MDS %d received no files", id)
		}
	}
}

func TestLookupFindsEveryFile(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := newPopulated(t, 9, 3, 300)
	for i := 0; i < 300; i++ {
		path := "/f" + strconv.Itoa(i)
		res := c.LookupWith(rng, path, -1)
		if !res.Found {
			t.Fatalf("lookup of existing %s not found (level %d)", path, res.Level)
		}
		if res.Home != c.HomeOf(path) {
			t.Fatalf("lookup of %s returned home %d, truth %d", path, res.Home, c.HomeOf(path))
		}
		if res.Level < 1 || res.Level > 4 {
			t.Fatalf("level %d out of range", res.Level)
		}
		if res.Latency <= 0 {
			t.Fatal("non-positive latency")
		}
	}
}

func TestLookupMissingFile(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := newPopulated(t, 6, 3, 100)
	res := c.LookupWith(rng, "/not/there", -1)
	if res.Found || res.Home != -1 {
		t.Errorf("missing file found: %+v", res)
	}
	if res.Level != 4 {
		t.Errorf("miss resolved at level %d, want 4 (global multicast)", res.Level)
	}
}

func TestLookupL1LearnsHotFiles(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := newPopulated(t, 6, 3, 200)
	const hot = "/f42"
	entry := c.MDSIDs()[0]
	first := c.LookupWith(rng, hot, entry)
	if first.Level <= 1 {
		t.Skipf("first lookup already at L1 (possible but unexpected)")
	}
	second := c.LookupWith(rng, hot, entry)
	if second.Level != 1 {
		t.Errorf("repeat lookup served at level %d, want 1", second.Level)
	}
	if second.Latency >= first.Latency {
		t.Errorf("L1 hit (%v) not faster than cold lookup (%v)", second.Latency, first.Latency)
	}
}

func TestLookupUnknownEntryFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := newPopulated(t, 4, 2, 50)
	res := c.LookupWith(rng, "/f1", 999) // bogus entry MDS
	if !res.Found {
		t.Error("fallback entry failed lookup")
	}
}

func TestLevelTallyAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := newPopulated(t, 6, 3, 200)
	timed := 0
	for i := 0; i < 400; i++ {
		if res := c.LookupWith(rng, "/f"+strconv.Itoa(i%200), -1); res.Latency > 0 {
			timed++
		}
	}
	if c.Tally().Total() != 400 {
		t.Errorf("tally total = %d", c.Tally().Total())
	}
	if timed != 400 {
		t.Errorf("results with a latency = %d", timed)
	}
	// With locality from repeats, a decent share must be served below L4.
	if within := 1 - c.Tally().Fraction(4); within < 0.5 {
		t.Errorf("only %.2f served within groups", within)
	}
}

func TestCreateDeleteLifecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := newPopulated(t, 6, 3, 100)
	home := c.ApplyWith(rng, trace.Record{Op: trace.OpCreate, Path: "/new/file"}).Home
	if c.HomeOf("/new/file") != home {
		t.Error("create did not record home")
	}
	res := c.LookupWith(rng, "/new/file", -1)
	if !res.Found || res.Home != home {
		t.Errorf("created file lookup = %+v", res)
	}
	if !c.ApplyWith(rng, trace.Record{Op: trace.OpDelete, Path: "/new/file"}).Found {
		t.Error("delete returned false")
	}
	if c.ApplyWith(rng, trace.Record{Op: trace.OpDelete, Path: "/new/file"}).Found {
		t.Error("double delete returned true")
	}
	res = c.LookupWith(rng, "/new/file", -1)
	if res.Found {
		t.Error("deleted file still found")
	}
}

func TestCreatedFilesFoundDespiteStaleReplicas(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// Freshly created files may be absent from remote replicas (staleness);
	// the hierarchy must still resolve them — at worst at L4.
	cfg := smallConfig(8, 4)
	cfg.UpdateThresholdBits = 1 << 30 // effectively never push updates
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Populate(func(fn func(string) bool) {
		for i := 0; i < 100; i++ {
			if !fn("/base" + strconv.Itoa(i)) {
				return
			}
		}
	})
	for i := 0; i < 50; i++ {
		c.ApplyWith(rng, trace.Record{Op: trace.OpCreate, Path: "/fresh" + strconv.Itoa(i)})
	}
	for i := 0; i < 50; i++ {
		path := "/fresh" + strconv.Itoa(i)
		res := c.LookupWith(rng, path, -1)
		if !res.Found || res.Home != c.HomeOf(path) {
			t.Fatalf("stale-replica lookup of %s failed: %+v", path, res)
		}
	}
}

func TestPushUpdateRefreshesReplicas(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cfg := smallConfig(8, 4)
	cfg.UpdateThresholdBits = 1 << 30 // manual pushes only
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Populate(func(fn func(string) bool) { fn("/seed") })
	origin := c.ApplyWith(rng, trace.Record{Op: trace.OpCreate, Path: "/pushed/file"}).Home
	d := c.PushUpdate(origin)
	if d <= 0 {
		t.Error("push latency not positive")
	}
	// Every other group's replica of origin must now contain the file.
	for _, g := range c.Layout().Groups() {
		if g.ID == c.Layout().GroupOf(origin).ID {
			continue
		}
		holder, ok := g.Holder(origin)
		if !ok {
			t.Fatalf("group %d lost replica of %d", g.ID, origin)
		}
		f := c.Node(holder).Replicas().Get(origin)
		if d := bloom.NewDigestString("/pushed/file"); !f.ContainsDigest(&d) {
			t.Errorf("group %d replica stale after push", g.ID)
		}
	}
}

func TestLookupAtQueuesRequests(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := newPopulated(t, 4, 2, 100)
	entry := c.MDSIDs()[0]
	// Two simultaneous arrivals at the same MDS: the second waits.
	r1 := c.LookupAt(rng, "/f1", entry, 0)
	r2 := c.LookupAt(rng, "/f2", entry, 0)
	if r2.Latency < r1.ServerTime {
		t.Errorf("second request (%v) did not wait for first (%v busy)", r2.Latency, r1.ServerTime)
	}
	c.ResetQueues()
	r3 := c.LookupAt(rng, "/f3", entry, 0)
	if r3.Latency > r1.Latency+r2.Latency {
		t.Error("queue reset did not clear backlog")
	}
}

func TestRatesAndFootprint(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := newPopulated(t, 6, 3, 200)
	for i := 0; i < 300; i++ {
		c.LookupWith(rng, "/f"+strconv.Itoa(i%100), -1)
	}
	if pLRU, pL2 := c.Tally().Fraction(1), c.Tally().Fraction(2); pLRU < 0 || pLRU > 1 || pL2 < 0 || pL2 > 1 {
		t.Errorf("rates out of range: L1 %f, L2 %f", pLRU, pL2)
	}
	f := c.Footprint(0)
	if f.LocalFilterBytes == 0 || f.ReplicaBytes == 0 {
		t.Errorf("footprint zero: %+v", f)
	}
	if f.Total() != f.LocalFilterBytes+f.ReplicaBytes+f.LRUBytes+f.IDBFABytes {
		t.Error("Total inconsistent")
	}
	mean := c.MeanFootprint()
	if mean.Total() == 0 {
		t.Error("mean footprint zero")
	}
	if c.Footprint(999).Total() != 0 {
		t.Error("unknown MDS footprint non-zero")
	}
}

// Regression: CheckInvariants checked the namespace only by count, so a file
// moved from its home's store to another server's behind ground truth's back
// passed, and L4 answered the old home from the map without asking its store.
// The check is exact now: every stored path must resolve to its own server.
func TestCheckInvariantsCatchesWrongHome(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := newPopulated(t, 6, 3, 200)
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	const path = "/f100"
	home := c.HomeOf(path)
	other := c.MDSIDs()[0]
	if other == home {
		other = c.MDSIDs()[1]
	}
	if !c.Node(home).DeleteFile(path) {
		t.Fatalf("%s is not in its home %d's store", path, home)
	}
	c.Node(other).AddFile(path)
	if err := c.CheckInvariants(); err == nil {
		t.Fatalf("CheckInvariants passed %s stored at MDS %d while ground truth homes it at %d", path, other, home)
	} else {
		t.Log(err)
	}
	if res := c.LookupWith(rng, path, c.MDSIDs()[2]); res.Found && res.Home == home {
		t.Errorf("Lookup(%s) = %+v: the old home, whose store lacks it", path, res)
	}
}

// A replica that drifted from what its origin last shipped fails the check:
// the XOR-delta drift the origin tracks would no longer bound the holder's
// staleness.
func TestCheckInvariantsCatchesDriftedReplica(t *testing.T) {
	c := newPopulated(t, 6, 3, 200)
	r := c.Layout().Groups()[0].Replicas[0]
	stale := c.Node(r.Origin).Shipped().Clone()
	stale.AddString("/never-shipped")
	c.Node(r.Holder).InstallReplica(r.Origin, stale)
	err := c.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "last shipped") {
		t.Fatalf("CheckInvariants = %v with MDS %d's replica of %d drifted", err, r.Holder, r.Origin)
	}
}
