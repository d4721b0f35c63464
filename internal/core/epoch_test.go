package core

import (
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"ghba/internal/group"
	"ghba/internal/mds"
)

// TestEpochSnapshotConsistentUnderChurn hammers the lock-free load of the
// published membership snapshot (an mds.Fleet, one per epoch) from reader
// goroutines while membership churns through AddMDS, RemoveMDS and FailMDS.
// Every epoch a reader observes must be internally consistent —
// each listed ID resolves to a node and to a group roster containing it —
// because an epoch is built and published atomically under the topology
// lock; readers must never see a half-built view. Run under -race this is
// the memory-model contract of the snapshot-swap read path.
func TestEpochSnapshotConsistentUnderChurn(t *testing.T) {
	const files = 200
	c := newPopulated(t, 12, 4, files)

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id, _, err := c.AddMDS()
			if err != nil {
				t.Errorf("AddMDS: %v", err)
				return
			}
			// Alternate graceful removal with crash failover so epochs are
			// republished from every reconfiguration entry point.
			if i%2 == 0 {
				if _, err := c.RemoveMDS(id); err != nil {
					t.Errorf("RemoveMDS(%d): %v", id, err)
					return
				}
			} else {
				if _, err := c.FailMDS(id); err != nil {
					t.Errorf("FailMDS(%d): %v", id, err)
					return
				}
			}
		}
	}()

	const readers = 4
	const loads = 3000
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(300 + r)))
			for i := 0; i < loads; i++ {
				e := c.fleet.Load()
				if len(e.IDs()) == 0 {
					t.Errorf("reader %d: empty epoch", r)
					return
				}
				for _, id := range e.IDs() {
					if e.Node(id) == nil {
						t.Errorf("reader %d: epoch lists MDS %d without a node", r, id)
						return
					}
					members := e.Members(id)
					if members == nil {
						t.Errorf("reader %d: epoch lists MDS %d without a group", r, id)
						return
					}
					found := false
					for _, m := range members {
						if m == id {
							found = true
							break
						}
					}
					if !found {
						t.Errorf("reader %d: MDS %d missing from its own roster %v", r, id, members)
						return
					}
				}
				// Interleave real lookups so the epoch is consumed the way
				// the read path consumes it, not just inspected.
				if i%16 == 0 {
					res := c.LookupWith(rng, "/f"+strconv.Itoa(rng.Intn(files)), -1)
					if res.Level < 1 || res.Level > 4 {
						t.Errorf("reader %d: level %d out of range", r, res.Level)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	writer.Wait()

	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("invariants after churn: %v", err)
	}
}

// TestL4LookupsRacingRemoveMDS races lock-free lookups against RemoveMDS
// re-homing a populated server's files, often onto a server added after the
// lookup loaded its epoch. Replicas are never refreshed, so a re-homed file
// resolves at L4 from most entries, through the home index. No file is
// deleted or lost, so every lookup must find its file, at a home whose store
// holds it: the re-home adds the file to the new store before it re-points
// the cell, in one shard-locked step, and the leaver's store keeps the file.
func TestL4LookupsRacingRemoveMDS(t *testing.T) {
	const files = 400
	cfg := smallConfig(12, 4)
	cfg.UpdateThresholdBits = 1 << 30 // replicas stay as populated
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Populate(func(fn func(string) bool) {
		for i := 0; i < files; i++ {
			fn("/f" + strconv.Itoa(i))
		}
	})
	// Every server that ever existed, so a reader can check the store of a
	// home that has since left.
	var servers sync.Map
	for _, id := range c.MDSIDs() {
		servers.Store(id, c.Node(id))
	}

	// The writer runs a fixed number of rounds; the readers look up until
	// it is done. After each round the writer waits until the readers have
	// resolved an L4 lookup against it, so every round races them however
	// the scheduler runs the goroutines, even on one CPU. The waits share
	// one time budget: once it is spent the rounds run on unwaited, so a
	// run that never resolves at L4 ends and fails the assertion below
	// instead of hanging. l4Total, live (the readers still looking up) and
	// expired are guarded by mu.
	const rounds, readers, budget = 60, 4, 30 * time.Second
	var (
		mu      sync.Mutex
		cond    = sync.NewCond(&mu)
		l4Total int
		live    = readers
		expired bool
	)
	timer := time.AfterFunc(budget, func() {
		mu.Lock()
		expired = true
		cond.Broadcast()
		mu.Unlock()
	})
	defer timer.Stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < rounds; i++ {
			id, _, err := c.AddMDS()
			if err != nil {
				t.Errorf("AddMDS: %v", err)
				return
			}
			servers.Store(id, c.Node(id))
			// Retire the fullest server other than the newcomer (the
			// highest ID), so that every round re-homes files, some onto the
			// newcomer, that entries outside their new homes' groups must
			// find at L4. (A server holding one file or none may offer the
			// readers no L4 lookup to resolve.)
			ids := c.MDSIDs()
			leaver := ids[0]
			for _, id := range ids[:len(ids)-1] {
				if c.Node(id).FileCount() > c.Node(leaver).FileCount() {
					leaver = id
				}
			}
			if _, err := c.RemoveMDS(leaver); err != nil {
				t.Errorf("RemoveMDS: %v", err)
				return
			}
			mu.Lock()
			for start := l4Total; l4Total == start && live > 0 && !expired; {
				cond.Wait()
			}
			mu.Unlock()
		}
	}()

	var wg sync.WaitGroup
	l4 := make([]int, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				mu.Lock()
				live--
				cond.Broadcast()
				mu.Unlock()
			}()
			rng := rand.New(rand.NewSource(int64(700 + r)))
			for {
				select {
				case <-done:
					return
				default:
				}
				path := "/f" + strconv.Itoa(rng.Intn(files))
				res := c.LookupWith(rng, path, -1)
				if !res.Found {
					t.Errorf("reader %d: lookup of %s missed (level %d)", r, path, res.Level)
					return
				}
				n, ok := servers.Load(res.Home)
				if !ok || !n.(*mds.Node).HasFile(path) {
					t.Errorf("reader %d: lookup of %s answered MDS %d (level %d), whose store lacks it", r, path, res.Home, res.Level)
					return
				}
				if res.Level == 4 {
					l4[r]++
					mu.Lock()
					l4Total++
					cond.Broadcast()
					mu.Unlock()
				}
			}
		}(r)
	}
	wg.Wait()

	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("invariants after churn: %v", err)
	}
	if got := c.FileCount(); got != files {
		t.Fatalf("FileCount = %d after re-homing, want %d", got, files)
	}
	total := 0
	for _, n := range l4 {
		total += n
	}
	if total == 0 {
		t.Error("no lookup resolved at L4; the race this test exists for did not run")
	}
	t.Logf("%d lookups resolved at L4 across %d re-homing rounds", total, rounds)
}

// TestLockFreeAccessorsUnderChurn reads every membership accessor that loads
// the published fleet without a lock — MDSIDs, NumMDS, NumGroups, Layout,
// Node — while a writer joins, removes and fails servers, the survivors'
// IDs growing non-contiguous. Every answer must be one whole snapshot: IDs
// sorted and unique, and a layout sound for the members its own groups
// name. Run it under -race.
func TestLockFreeAccessorsUnderChurn(t *testing.T) {
	c := newPopulated(t, 9, 3, 200)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 30; i++ {
			if _, _, err := c.AddMDS(); err != nil {
				t.Errorf("AddMDS: %v", err)
				return
			}
			oldest := c.MDSIDs()[0]
			var err error
			switch i % 3 {
			case 0:
				_, err = c.RemoveMDS(oldest)
			case 1:
				_, err = c.FailMDS(oldest)
			}
			if err != nil {
				t.Errorf("round %d, MDS %d: %v", i, oldest, err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				ids := c.MDSIDs()
				if !slices.IsSorted(ids) || len(slices.Compact(slices.Clone(ids))) != len(ids) {
					t.Errorf("MDSIDs() = %v, want sorted and unique", ids)
					return
				}
				for _, id := range ids {
					if n := c.Node(id); n != nil && n.ID() != id {
						t.Errorf("Node(%d) is MDS %d", id, n.ID())
						return
					}
				}
				if c.NumMDS() < 1 || c.NumGroups() < 1 {
					t.Errorf("NumMDS() = %d, NumGroups() = %d", c.NumMDS(), c.NumGroups())
					return
				}
				if err := checkLayoutAlone(c.Layout()); err != nil {
					t.Errorf("Layout(): %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("invariants after churn: %v", err)
	}
}

// checkLayoutAlone checks l against the union of its own groups' members.
func checkLayoutAlone(l group.Layout) error {
	var ids []int
	for _, g := range l.Groups() {
		ids = append(ids, g.Members...)
	}
	slices.Sort(ids)
	return l.Check(ids)
}
