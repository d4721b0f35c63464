package core

// The HBA baseline — every MDS mirrors every other one — is this engine
// with groups of one: θ = N−1 replicas per server, nobody to ask at L3, the
// same L4. These cases pin the baseline's behaviour at MaxGroupSize = 1.

import (
	"math/rand"
	"strconv"
	"testing"

	"ghba/internal/bloom"
	"ghba/internal/simnet"
	"ghba/internal/trace"
)

func TestHBAIsGroupsOfOne(t *testing.T) {
	c := newPopulated(t, 8, 1, 100)
	if c.Name() != "HBA" {
		t.Errorf("Name = %q", c.Name())
	}
	if c.NumGroups() != 8 {
		t.Errorf("NumGroups = %d, want one per MDS", c.NumGroups())
	}
	for _, id := range c.MDSIDs() {
		if rc := c.Node(id).ReplicaCount(); rc != 7 {
			t.Errorf("MDS %d holds %d replicas, want 7 (N−1)", id, rc)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestHBALookupFindsEveryFile(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := newPopulated(t, 8, 1, 300)
	for i := 0; i < 300; i++ {
		path := "/f" + strconv.Itoa(i)
		res := c.LookupWith(rng, path, -1)
		if !res.Found || res.Home != c.HomeOf(path) {
			t.Fatalf("lookup %s = %+v (truth %d)", path, res, c.HomeOf(path))
		}
	}
	if c.FileCount() != 300 {
		t.Errorf("FileCount = %d", c.FileCount())
	}
}

func TestHBALookupResolvesLocallyWhenFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// With fresh replicas, HBA should answer almost everything at L1/L2 —
	// that is its whole selling point — and never at the group level.
	c := newPopulated(t, 10, 1, 400)
	for i := 0; i < 400; i++ {
		c.LookupWith(rng, "/f"+strconv.Itoa(i), -1)
	}
	if frac := c.Tally().Fraction(1) + c.Tally().Fraction(2); frac < 0.95 {
		t.Errorf("only %.2f of lookups served locally, want ≥0.95", frac)
	}
	if l3 := c.Tally().Count(3); l3 != 0 {
		t.Errorf("%d lookups served at L3; a group of one has no groupmates", l3)
	}
}

func TestHBALookupMissing(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := newPopulated(t, 4, 1, 50)
	res := c.LookupWith(rng, "/ghost", -1)
	if res.Found || res.Level != 4 {
		t.Errorf("missing lookup = %+v", res)
	}
}

func TestHBACreateDeleteAndUpdatePropagation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cfg := smallConfig(6, 1)
	cfg.UpdateThresholdBits = 1 << 30 // manual pushes
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Populate(func(fn func(string) bool) { fn("/seed") })
	home := c.ApplyWith(rng, trace.Record{Op: trace.OpCreate, Path: "/new"}).Home
	if c.HomeOf("/new") != home {
		t.Error("create lost home")
	}
	before := c.Messages().Get(simnet.MsgReplicaUpdate)
	if d := c.PushUpdate(home); d <= 0 {
		t.Error("push latency not positive")
	}
	// The system-wide update: one message per other server, and every
	// other node's replica of home must now contain the file.
	if sent := c.Messages().Get(simnet.MsgReplicaUpdate) - before; sent != 5 {
		t.Errorf("push sent %d replica updates, want N−1 = 5", sent)
	}
	for _, id := range c.MDSIDs() {
		if id == home {
			continue
		}
		if d := bloom.NewDigestString("/new"); !c.Node(id).Replicas().Get(home).ContainsDigest(&d) {
			t.Errorf("MDS %d replica of %d stale after push", id, home)
		}
	}
	if !c.ApplyWith(rng, trace.Record{Op: trace.OpDelete, Path: "/new"}).Found || c.ApplyWith(rng, trace.Record{Op: trace.OpDelete, Path: "/new"}).Found {
		t.Error("delete semantics wrong")
	}
}

func TestHBAAddMDSCostIsLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := newPopulated(t, 10, 1, 100)
	id, rep, err := c.AddMDS()
	if err != nil {
		t.Fatal(err)
	}
	if id != 10 {
		t.Errorf("id = %d", id)
	}
	if got := c.Node(id).ReplicaCount(); got != 10 {
		t.Errorf("newcomer holds %d replicas, want N=10 (all of them)", got)
	}
	if rep.Messages < 2*10 {
		t.Errorf("messages = %d, want ≥ 2N", rep.Messages)
	}
	if c.NumMDS() != 11 {
		t.Errorf("NumMDS = %d", c.NumMDS())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
	// Newcomer can serve lookups.
	if res := c.LookupWith(rng, "/f5", id); !res.Found {
		t.Error("lookup via newcomer failed")
	}
}

func TestHBAQueuingAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := newPopulated(t, 4, 1, 100)
	entry := c.MDSIDs()[0]
	r1 := c.LookupAt(rng, "/f1", entry, 0)
	r2 := c.LookupAt(rng, "/f2", entry, 0)
	if r2.Latency < r1.ServerTime {
		t.Error("no queueing delay on simultaneous arrivals")
	}
	c.ResetQueues()
}

func TestHBAMemoryPressureSlowsLookups(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// Same cluster, two budgets: constrained memory must produce strictly
	// slower array probes — the effect behind Figs 8–10.
	mk := func(budget uint64) *Cluster {
		cfg := smallConfig(8, 1)
		cfg.MemoryBudgetBytes = budget
		cfg.VirtualReplicaBytes = 8 << 20 // 8 MB per replica at paper scale
		cfg.CacheHitRate = 0.5
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.Populate(func(fn func(string) bool) {
			for i := 0; i < 200; i++ {
				if !fn("/f" + strconv.Itoa(i)) {
					return
				}
			}
		})
		return c
	}
	big := mk(0)          // unlimited
	small := mk(16 << 20) // 16 MB: 2 of 8 replicas resident
	var bigLat, smallLat float64
	for i := 0; i < 200; i++ {
		path := "/f" + strconv.Itoa(i)
		bigLat += float64(big.LookupWith(rng, path, big.MDSIDs()[0]).Latency)
		smallLat += float64(small.LookupWith(rng, path, small.MDSIDs()[0]).Latency)
	}
	if smallLat <= bigLat*2 {
		t.Errorf("memory pressure barely visible: constrained %.0f vs unlimited %.0f", smallLat, bigLat)
	}
}

func TestHBAApplyDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := newPopulated(t, 4, 1, 50)
	res := c.ApplyWith(rng, trace.Record{Op: trace.OpStat, Path: "/f1"})
	if !res.Found {
		t.Error("stat record not found")
	}
	res = c.ApplyWith(rng, trace.Record{Op: trace.OpCreate, Path: "/brandnew"})
	if !res.Found || c.HomeOf("/brandnew") < 0 {
		t.Error("create record failed")
	}
	c.ApplyWith(rng, trace.Record{Op: trace.OpDelete, Path: "/brandnew"})
	if c.HomeOf("/brandnew") != -1 {
		t.Error("delete record failed")
	}
}

func TestHBAFootprint(t *testing.T) {
	c := newPopulated(t, 5, 1, 50)
	f := c.Footprint(0)
	if f.ReplicaBytes == 0 || f.LocalFilterBytes == 0 {
		t.Errorf("footprint = %+v", f)
	}
	if c.Footprint(99).Total() != 0 {
		t.Error("unknown footprint non-zero")
	}
}
