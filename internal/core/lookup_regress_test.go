package core

import (
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"ghba/internal/bloom"
	"ghba/internal/simnet"
)

// Regression: verify used to charge a MsgQueryUnicast and an RTT before
// checking whether the candidate still existed, booking traffic to dead
// daemons whenever a stale filter answered for a failed MDS. A candidate
// absent from the epoch must be rejected at zero cost.
func TestVerifyDeadCandidateCostsNothing(t *testing.T) {
	c := newPopulated(t, 8, 4, 100)
	e := c.fleet.Load()
	before := c.Messages().Get(simnet.MsgQueryUnicast)

	found, cost := c.verify(e, 9999, "/f0")
	if found {
		t.Error("verify found a file on a nonexistent MDS")
	}
	if cost != 0 {
		t.Errorf("verify charged %v against a nonexistent MDS", cost)
	}
	if got := c.Messages().Get(simnet.MsgQueryUnicast); got != before {
		t.Errorf("verify counted %d unicasts against a nonexistent MDS", got-before)
	}

	// A live candidate still pays the forward-and-check.
	found, cost = c.verify(e, c.HomeOf("/f0"), "/f0")
	if !found {
		t.Error("verify missed /f0 on its home")
	}
	if cost <= 0 {
		t.Error("verify charged nothing for a live unicast")
	}
	if got := c.Messages().Get(simnet.MsgQueryUnicast); got != before+1 {
		t.Errorf("live verify counted %d unicasts, want 1", got-before)
	}
}

// End-to-end flavor of the same bug: after an MDS fails, lookups whose stale
// replicas still answer for it must not book unicasts above what live
// candidates account for. The invariant checked is structural — every
// counted unicast corresponds to a verify against a node present in the
// epoch, so the tally can only grow when lookups actually run.
func TestLookupAfterFailoverBooksNoGhostUnicasts(t *testing.T) {
	const files = 200
	c := newPopulated(t, 10, 5, files)
	ids := c.MDSIDs()
	if _, err := c.FailMDS(ids[len(ids)-1]); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	before := c.Messages().Get(simnet.MsgQueryUnicast)
	lookups := 0
	for i := 0; i < files; i++ {
		path := "/f" + strconv.Itoa(i)
		truth := c.HomeOf(path)
		if truth < 0 {
			continue // lost with the failed server
		}
		res := c.LookupWith(rng, path, -1)
		if !res.Found || res.Home != truth {
			t.Fatalf("lookup %s = %+v, truth %d", path, res, truth)
		}
		lookups++
	}
	// Each surviving lookup verifies at most a handful of live candidates;
	// a regression that counts dead-candidate unicasts shows up as a tally
	// far above the per-lookup candidate budget.
	e := c.fleet.Load()
	maxPerLookup := uint64(len(e.IDs()))
	if got := c.Messages().Get(simnet.MsgQueryUnicast) - before; got > uint64(lookups)*maxPerLookup {
		t.Errorf("%d unicasts for %d lookups across %d live nodes", got, lookups, len(e.IDs()))
	}
}

// Regression: lookupScratch returned to the pool with a populated digest
// carried the previous path's hash state into unrelated requests. putScratch
// must re-key the digest (in place — it no longer pays for a struct copy)
// while keeping the hit buffers' capacity (the reuse the pool exists for).
func TestPutScratchResetsDigest(t *testing.T) {
	s := &lookupScratch{
		hits:  make([]int, 3, 16),
		mhits: make([]int, 2, 16),
		set:   make([]int, 1, 16),
	}
	const m, k = 1 << 20, 11
	s.digest = bloom.NewDigestString("/leaked/path")
	leaked := slices.Clone(s.digest.Positions(m, k, bloom.LayoutClassic)) // warm the cache
	putScratch(s)
	empty := bloom.NewDigestString("")
	got := s.digest.Positions(m, k, bloom.LayoutClassic)
	if slices.Equal(got, leaked) || !slices.Equal(got, empty.Positions(m, k, bloom.LayoutClassic)) {
		t.Error("putScratch left the digest keyed to the previous path")
	}
	if cap(s.hits) != 16 || cap(s.mhits) != 16 || cap(s.set) != 16 {
		t.Error("putScratch dropped hit-buffer capacity")
	}
}

// TestLookupWalkZeroAlloc pins the allocation contract of the four-level
// walk on both entry points: a warmed L1 hit and a lookup of an absent path
// (every level probed, nothing learned) allocate nothing — the pooled
// scratch carries the digest and every hit buffer.
func TestLookupWalkZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop Puts, so the pooled scratch is re-allocated")
	}
	c := newPopulated(t, 12, 4, 500)
	entry := c.MDSIDs()[0]
	rng := rand.New(rand.NewSource(1))
	const hot, absent = "/f42", "/absent"
	c.LookupWith(rng, hot, entry) // teaches L1 the hot path's home
	for _, lk := range []struct {
		name   string
		lookup func(path string) LookupResult
	}{
		{"LookupWith", func(path string) LookupResult { return c.LookupWith(rng, path, entry) }},
		{"LookupAt", func(path string) LookupResult { return c.LookupAt(rng, path, entry, 0) }},
	} {
		for _, tc := range []struct {
			path  string
			found bool
			level int
		}{{hot, true, 1}, {absent, false, 4}} {
			if allocs := testing.AllocsPerRun(1_000, func() {
				if res := lk.lookup(tc.path); res.Found != tc.found || res.Level != tc.level {
					t.Fatalf("%s(%s) = %+v, want found=%v at L%d", lk.name, tc.path, res, tc.found, tc.level)
				}
			}); allocs != 0 {
				t.Errorf("%s(%s) allocates %.2f objects/op, want 0", lk.name, tc.path, allocs)
			}
		}
	}
}
