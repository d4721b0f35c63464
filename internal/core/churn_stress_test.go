package core

import (
	"math/rand"
	"sync"
	"testing"

	"ghba/internal/simnet"
	"ghba/internal/trace"
)

// TestApplyParallelChurnStress interleaves a concurrent mixed mutation
// workload with membership churn — AddMDS and FailMDS firing while worker
// goroutines create, delete and look up through ApplyWith — and asserts the
// global-mirror-image invariant at every quiescent point. Run under -race
// this is the concurrency contract of the sharded write path: per-node and
// per-shard locks keep mutations consistent, reconfiguration serializes
// exclusively, and the coalescing ship queue survives origins vanishing
// between enqueue and drain.
func TestApplyParallelChurnStress(t *testing.T) {
	cfg := smallConfig(12, 4)
	cfg.ShipBatch = 8 // exercise coalesced draining from worker goroutines
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tcfg := trace.Config{
		Profile:          trace.MustMixProfile(60, 25, 15),
		TIF:              2,
		FilesPerSubtrace: 400,
		Seed:             11,
	}
	gen, err := trace.NewGenerator(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Populate(func(fn func(string) bool) { gen.EachInitialPath(fn) })

	const workers = 4
	const rounds = 3
	const recsPerWorker = 250

	for round := 0; round < rounds; round++ {
		lanes, err := trace.SplitGenerators(tcfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w, round int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(1000*round + w)))
				for i := 0; i < recsPerWorker; i++ {
					res := c.ApplyWith(rng, lanes[w].Next())
					if res.Level < 0 || res.Level > 4 {
						t.Errorf("worker %d: level %d out of range", w, res.Level)
						return
					}
					if res.Found && res.Level > 0 && res.Home < 0 {
						t.Errorf("worker %d: found %s with negative home", w, res.Path)
						return
					}
				}
			}(w, round)
		}

		// Membership churn riding alongside the mutation workload: grow,
		// crash a survivor, grow again.
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := c.AddMDS(); err != nil {
				t.Errorf("AddMDS: %v", err)
				return
			}
			ids := c.MDSIDs()
			if _, err := c.FailMDS(ids[len(ids)/2]); err != nil {
				t.Errorf("FailMDS: %v", err)
				return
			}
			if _, _, err := c.AddMDS(); err != nil {
				t.Errorf("AddMDS: %v", err)
			}
		}()
		wg.Wait()

		// Quiescent point: the coverage invariant must hold both before and
		// after draining the coalesced ship queue.
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("round %d: invariants before flush: %v", round, err)
		}
		c.Flush()
		// Every origin that crossed the ship threshold has shipped, so a
		// second flush finds nothing to ship.
		for _, id := range c.MDSIDs() {
			if c.Node(id).NeedsShip(cfg.UpdateThresholdBits) {
				t.Fatalf("round %d: MDS %d is past the ship threshold after flush", round, id)
			}
		}
		shipped := c.Messages().Get(simnet.MsgReplicaUpdate)
		c.Flush()
		if again := c.Messages().Get(simnet.MsgReplicaUpdate); again != shipped {
			t.Fatalf("round %d: a second flush shipped %d more replica updates", round, again-shipped)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("round %d: invariants after flush: %v", round, err)
		}
	}

	// After the churn settles, surviving files still resolve to their
	// ground-truth homes through the full hierarchy.
	checked := 0
	rng := rand.New(rand.NewSource(99))
	gen2, err := trace.NewGenerator(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	gen2.EachInitialPath(func(p string) bool {
		truth := c.HomeOf(p)
		if truth < 0 {
			return true // lost in a FailMDS, legitimately gone
		}
		res := c.LookupWith(rng, p, -1)
		if !res.Found || res.Home != truth {
			t.Fatalf("post-churn lookup of %s = %+v, truth %d", p, res, truth)
		}
		checked++
		return checked < 200
	})
	if checked == 0 {
		t.Fatal("no surviving files to check")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
