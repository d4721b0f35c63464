package core

import (
	"math/rand"
	"strconv"
	"testing"

	"ghba/internal/trace"
)

func TestFailMDSDegradedButConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := newPopulated(t, 9, 3, 400)
	victim := c.MDSIDs()[3]
	victimFiles := c.Node(victim).FileCount()
	if victimFiles == 0 {
		t.Fatal("setup: victim homes nothing")
	}

	rep, err := c.FailMDS(victim)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FilesLost != victimFiles {
		t.Errorf("FilesLost = %d, want %d", rep.FilesLost, victimFiles)
	}
	if rep.ReplicasRefetched == 0 {
		t.Error("no replicas re-fetched despite lost holdings")
	}
	if rep.Messages == 0 {
		t.Error("failover cost no messages")
	}
	if c.NumMDS() != 8 {
		t.Errorf("NumMDS = %d", c.NumMDS())
	}
	// The mirror-image invariant must be restored.
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("invariants after failure: %v", err)
	}
	// Surviving files resolve correctly; the dead server's files miss
	// (degraded coverage, never wrong answers).
	for i := 0; i < 400; i++ {
		path := "/f" + strconv.Itoa(i)
		res := c.LookupWith(rng, path, -1)
		if res.Found {
			if res.Home == victim {
				t.Fatalf("%s resolved to the dead MDS", path)
			}
			if res.Home != c.HomeOf(path) {
				t.Fatalf("%s wrong home after failover", path)
			}
		}
	}
	lost := 0
	for i := 0; i < 400; i++ {
		if !c.LookupWith(rng, "/f"+strconv.Itoa(i), -1).Found {
			lost++
		}
	}
	if lost != victimFiles {
		t.Errorf("%d files unavailable, want %d", lost, victimFiles)
	}
}

func TestFailMDSErrors(t *testing.T) {
	c := newPopulated(t, 2, 2, 20)
	if _, err := c.FailMDS(99); err == nil {
		t.Error("failing unknown MDS succeeded")
	}
	if _, err := c.FailMDS(0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FailMDS(1); err == nil {
		t.Error("failing last MDS succeeded")
	}
}

func TestFailMDSThenRecreateFiles(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := newPopulated(t, 6, 3, 200)
	victim := c.MDSIDs()[0]
	if _, err := c.FailMDS(victim); err != nil {
		t.Fatal(err)
	}
	// Clients recreate lost files; they land on survivors and resolve.
	for i := 0; i < 50; i++ {
		path := "/recreated/f" + strconv.Itoa(i)
		home := c.ApplyWith(rng, trace.Record{Op: trace.OpCreate, Path: path}).Home
		if home == victim {
			t.Fatal("file created at dead MDS")
		}
		res := c.LookupWith(rng, path, -1)
		if !res.Found || res.Home != home {
			t.Fatalf("recreated file %s: %+v", path, res)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCascadingFailures(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := newPopulated(t, 12, 4, 300)
	for i := 0; i < 5; i++ {
		ids := c.MDSIDs()
		if _, err := c.FailMDS(ids[i%len(ids)]); err != nil {
			t.Fatalf("failure %d: %v", i, err)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("invariants after failure %d: %v", i, err)
		}
	}
	if c.NumMDS() != 7 {
		t.Errorf("NumMDS = %d", c.NumMDS())
	}
	// The service still answers: every remaining file resolves.
	for i := 0; i < 300; i++ {
		path := "/f" + strconv.Itoa(i)
		if home := c.HomeOf(path); home >= 0 {
			res := c.LookupWith(rng, path, -1)
			if !res.Found || res.Home != home {
				t.Fatalf("surviving file %s: %+v", path, res)
			}
		}
	}
}

// TestReplicaDriftStaysBounded pins what a reconfiguration fetch installs:
// the snapshot the origin last shipped, not a fresh one. A fresh Ship for one
// new holder's benefit zeroes the origin's drift counter while every other
// group keeps the older snapshot, so until the origin's next full ship their
// replicas drift past the threshold unnoticed (108–110 bits against 64 before
// the fix). 400 creates, one split or one failover, 800 more creates: after
// no create may a replica be further from its origin's filter than the ship
// threshold.
func TestReplicaDriftStaysBounded(t *testing.T) {
	for name, reconfigure := range map[string]func(c *Cluster) error{
		"split": func(c *Cluster) error { _, _, err := c.AddMDS(); return err },
		"fail":  func(c *Cluster) error { _, err := c.FailMDS(5); return err },
	} {
		t.Run(name, func(t *testing.T) {
			c, err := New(smallConfig(12, 4))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(42))
			var worst uint64
			create := func(from, to int) {
				for i := from; i < to; i++ {
					c.ApplyWith(rng, trace.Record{Op: trace.OpCreate, Path: "/drift/f" + strconv.Itoa(i)})
					for _, g := range c.Layout().Groups() {
						for _, r := range g.Replicas {
							drift, err := c.Node(r.Origin).LocalFilter().XorBits(c.Node(r.Holder).Replicas().Get(r.Origin))
							if err != nil {
								t.Fatal(err)
							}
							worst = max(worst, drift)
						}
					}
				}
			}
			create(0, 400)
			if err := reconfigure(c); err != nil {
				t.Fatal(err)
			}
			create(400, 1200)
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if worst == 0 || worst > c.cfg.UpdateThresholdBits {
				t.Errorf("worst replica drift %d bits, want within (0, %d]", worst, c.cfg.UpdateThresholdBits)
			}
		})
	}
}
