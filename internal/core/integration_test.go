package core

import (
	"strconv"
	"testing"
	"time"

	"ghba/internal/trace"
)

// TestLookupCorrectUnderMemoryPressure verifies that the disk-spill model
// changes latencies, never answers: every lookup still resolves to the true
// home even when most of the replica array is "on disk".
func TestLookupCorrectUnderMemoryPressure(t *testing.T) {
	cfg := smallConfig(10, 3)
	cfg.MemoryBudgetBytes = 8 << 20
	cfg.VirtualReplicaBytes = 16 << 20 // everything spilled
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Populate(func(fn func(string) bool) {
		for i := 0; i < 200; i++ {
			if !fn("/mp/f" + strconv.Itoa(i)) {
				return
			}
		}
	})
	for i := 0; i < 200; i++ {
		path := "/mp/f" + strconv.Itoa(i)
		res := c.Lookup(path, c.RandomMDS())
		if !res.Found || res.Home != c.HomeOf(path) {
			t.Fatalf("pressure broke correctness: %s → %+v", path, res)
		}
	}
}

// TestQueuedLookupMatchesUnqueuedAnswer verifies the queuing model only
// affects timing, not routing.
func TestQueuedLookupMatchesUnqueuedAnswer(t *testing.T) {
	c := newPopulated(t, 8, 4, 200)
	for i := 0; i < 100; i++ {
		path := "/f" + strconv.Itoa(i)
		queued := c.LookupAt(path, 0, time.Duration(i)*time.Microsecond)
		if !queued.Found || queued.Home != c.HomeOf(path) {
			t.Fatalf("queued lookup wrong: %+v", queued)
		}
		if queued.Latency < queued.ServerTime {
			t.Fatalf("latency %v below server time %v", queued.Latency, queued.ServerTime)
		}
	}
}

// TestTraceReplayEndToEnd drives a full generated workload through the
// cluster and checks global consistency afterwards: every surviving file
// resolves, every deleted file misses.
func TestTraceReplayEndToEnd(t *testing.T) {
	gen, err := trace.NewGenerator(trace.Config{
		Profile:          trace.HP(),
		TIF:              2,
		FilesPerSubtrace: 1_000,
		Seed:             9,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(smallConfig(9, 3))
	if err != nil {
		t.Fatal(err)
	}
	c.Populate(func(fn func(string) bool) { gen.EachInitialPath(fn) })

	alive := make(map[string]bool)
	gen2, err := trace.NewGenerator(trace.Config{
		Profile:          trace.HP(),
		TIF:              2,
		FilesPerSubtrace: 1_000,
		Seed:             9,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen2.EachInitialPath(func(p string) bool {
		alive[p] = true
		return true
	})
	for i := 0; i < 5_000; i++ {
		rec := gen.Next()
		c.Apply(rec)
		switch rec.Op {
		case trace.OpCreate:
			alive[rec.Path] = true
		case trace.OpDelete:
			delete(alive, rec.Path)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("invariants after replay: %v", err)
	}
	// Spot-check consistency against the independently tracked namespace.
	checked := 0
	for p, want := range alive {
		if checked >= 300 {
			break
		}
		checked++
		res := c.Lookup(p, c.RandomMDS())
		if res.Found != want {
			t.Fatalf("consistency: %s found=%v want %v", p, res.Found, want)
		}
	}
	if c.FileCount() != len(alive) {
		t.Errorf("FileCount = %d, tracked %d", c.FileCount(), len(alive))
	}
}

// TestPerLevelLatencyOrdering checks that deeper levels cost more on
// average — the premise of the hierarchy.
func TestPerLevelLatencyOrdering(t *testing.T) {
	c := newPopulated(t, 12, 4, 400)
	var sum [5]time.Duration
	var count [5]int
	for i := 0; i < 2_000; i++ {
		res := c.Lookup("/f"+strconv.Itoa(i%400), c.RandomMDS())
		sum[res.Level] += res.Latency
		count[res.Level]++
	}
	if count[1] == 0 || count[3] == 0 {
		t.Skip("workload did not exercise both levels")
	}
	if l1, l3 := sum[1]/time.Duration(count[1]), sum[3]/time.Duration(count[3]); l1 >= l3 {
		t.Errorf("L1 mean %v not below L3 mean %v", l1, l3)
	}
	if count[0] != 0 {
		t.Errorf("%d lookups answered at no level", count[0])
	}
}
