package core

import (
	"math/rand"
	"strconv"
	"testing"

	"ghba/internal/bloom"
	"ghba/internal/simnet"
	"ghba/internal/trace"
)

// TestApplyDeleteReportsPreDeleteHome pins the delete result contract: a
// delete of a live path reports the home it was unlinked from, a delete of
// a missing path reports (-1, false), so replay checkpoints can tell the
// two apart.
func TestApplyDeleteReportsPreDeleteHome(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := newPopulated(t, 6, 3, 100)
	path := "/f42"
	want := c.HomeOf(path)
	if want < 0 {
		t.Fatal("populated file has no home")
	}
	res := c.ApplyWith(rng, trace.Record{Op: trace.OpDelete, Path: path})
	if !res.Found || res.Home != want {
		t.Errorf("live delete = (home %d, found %v), want (%d, true)", res.Home, res.Found, want)
	}
	if res.Level != 0 {
		t.Errorf("delete served at level %d, want 0", res.Level)
	}
	res = c.ApplyWith(rng, trace.Record{Op: trace.OpDelete, Path: path})
	if res.Found || res.Home != -1 {
		t.Errorf("missing delete = (home %d, found %v), want (-1, false)", res.Home, res.Found)
	}
}

// TestShipQueueCoalescesAndFlushes exercises the coalescing ship queue: with
// a large batch, threshold crossings accumulate without shipping; Flush
// drains every dirty origin and freshens its replicas in all other groups.
func TestShipQueueCoalescesAndFlushes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cfg := smallConfig(8, 4)
	cfg.UpdateThresholdBits = 1 // every create crosses
	cfg.ShipBatch = 1 << 20     // never auto-drain
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Populate(func(fn func(string) bool) { fn("/seed") })

	updates := func() uint64 { return c.Messages().Get(simnet.MsgReplicaUpdate) }
	before := updates()
	homes := make(map[int][]string)
	for i := 0; i < 40; i++ {
		p := "/coal/f" + strconv.Itoa(i)
		home := c.ApplyWith(rng, trace.Record{Op: trace.OpCreate, Path: p}).Home
		homes[home] = append(homes[home], p)
	}
	// Replicas are stale until the flush (staleness is the point): no
	// update goes out before it, some do with it, and a second flush finds
	// nothing left to ship.
	if got := updates(); got != before {
		t.Fatalf("%d replica updates shipped before the flush", got-before)
	}
	c.Flush()
	flushed := updates()
	if flushed == before {
		t.Fatal("flush shipped no replica update despite threshold 1")
	}
	c.Flush()
	if again := updates(); again != flushed {
		t.Fatalf("a second flush shipped %d more replica updates", again-flushed)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("invariants after flush: %v", err)
	}
	for origin, paths := range homes {
		for _, g := range c.Layout().Groups() {
			if g.ID == c.Layout().GroupOf(origin).ID {
				continue
			}
			holder, ok := g.Holder(origin)
			if !ok {
				t.Fatalf("group %d lost replica of %d", g.ID, origin)
			}
			rep := c.Node(holder).Replicas().Get(origin)
			for _, p := range paths {
				if d := bloom.NewDigestString(p); !rep.ContainsDigest(&d) {
					t.Fatalf("group %d replica of %d stale after flush: missing %s", g.ID, origin, p)
				}
			}
		}
	}
}

// TestShipQueueAutoDrainsAtBatch verifies the inline drain: once the batch
// worth of threshold crossings accumulates, replicas freshen without an
// explicit flush.
func TestShipQueueAutoDrainsAtBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cfg := smallConfig(8, 4)
	cfg.UpdateThresholdBits = 1
	cfg.ShipBatch = 4
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Populate(func(fn func(string) bool) { fn("/seed") })

	first := c.ApplyWith(rng, trace.Record{Op: trace.OpCreate, Path: "/auto/f0"}).Home
	for i := 1; i < 4; i++ {
		c.ApplyWith(rng, trace.Record{Op: trace.OpCreate, Path: "/auto/f" + strconv.Itoa(i)})
	}
	// Four crossings have happened; the fourth drained the queue.
	for _, g := range c.Layout().Groups() {
		if g.ID == c.Layout().GroupOf(first).ID {
			continue
		}
		holder, _ := g.Holder(first)
		rep := c.Node(holder).Replicas().Get(first)
		if d := bloom.NewDigestString("/auto/f0"); !rep.ContainsDigest(&d) {
			t.Fatalf("group %d replica of %d stale after batch drain", g.ID, first)
		}
	}
}

// TestRecreateKeepsOriginalHome pins the one create there is: OpCreate on a
// path that already exists is an open, never a re-homing — wherever the
// create's draw lands, the path stays in its original home's store and in no
// other, and lookups keep answering that home. Bulk-loading a path twice
// leaves it where it was, too.
func TestRecreateKeepsOriginalHome(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := newPopulated(t, 8, 4, 200)
	homes := make(map[string]int)
	for i := 0; i < 100; i++ {
		path := "/f" + strconv.Itoa(i)
		homes[path] = c.HomeOf(path)
	}
	for i := 0; i < 50; i++ {
		path := "/f" + strconv.Itoa(i)
		res := c.ApplyWith(rng, trace.Record{Op: trace.OpCreate, Path: path})
		if !res.Found || res.Home != homes[path] || res.Level == 0 {
			t.Fatalf("re-create of %s = %+v, want an open answering home %d", path, res, homes[path])
		}
	}
	c.Populate(func(fn func(string) bool) {
		for i := 50; i < 100; i++ {
			if !fn("/f" + strconv.Itoa(i)) {
				return
			}
		}
	})
	for path, home := range homes {
		if got := c.HomeOf(path); got != home {
			t.Fatalf("%s moved from MDS %d to %d", path, home, got)
		}
		if res := c.LookupWith(rng, path, -1); !res.Found || res.Home != home {
			t.Fatalf("lookup of %s = %+v, want home %d", path, res, home)
		}
	}
	if got := c.FileCount(); got != 200 {
		t.Errorf("FileCount = %d, want 200", got)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestShipBooksOneUpdatePerOtherGroup pins the unit Simulation.ReplicaUpdates
// counts: one replica update per group that holds the origin's replica, the
// same unit the TCP backend counts. N = 100 is Fig 6's large system and
// origin 42 the one whose replicas a per-member ID filter used to place at
// two candidates in some groups (at M = 12), booking a second message for
// the false hit. Every group size of the Fig 6 sweep must book exactly
// NumGroups−1 messages for that ship.
func TestShipBooksOneUpdatePerOtherGroup(t *testing.T) {
	const n, origin = 100, 42
	for m := 1; m <= 15; m++ {
		c, err := New(DefaultConfig(n, m))
		if err != nil {
			t.Fatal(err)
		}
		before := c.Messages().Get(simnet.MsgReplicaUpdate)
		c.PushUpdate(origin)
		if sent, want := c.Messages().Get(simnet.MsgReplicaUpdate)-before, uint64(c.NumGroups()-1); sent != want {
			t.Errorf("M=%d: shipping MDS %d booked %d replica updates, want one per other group = %d", m, origin, sent, want)
		}
	}
}
