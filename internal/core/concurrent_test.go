package core

import (
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentLookups hammers the read path from many goroutines with no
// writer in flight: every file must resolve to its ground-truth home, and
// the internally synchronized tallies must account for every lookup.
func TestConcurrentLookups(t *testing.T) {
	const files = 400
	c := newPopulated(t, 12, 4, files)
	const workers, perWorker = 8, 400

	// timed counts the results that came back carrying a latency: with the
	// tally it checks no lookup was dropped from either account.
	var timed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			for i := 0; i < perWorker; i++ {
				path := "/f" + strconv.Itoa(rng.Intn(files))
				res := c.LookupWith(rng, path, -1)
				if !res.Found {
					t.Errorf("worker %d: %s not found (level %d)", w, path, res.Level)
					return
				}
				if truth := c.HomeOf(path); res.Home != truth {
					t.Errorf("worker %d: %s resolved to %d, truth %d", w, path, res.Home, truth)
					return
				}
				if res.Level < 1 || res.Level > 4 {
					t.Errorf("worker %d: level %d out of range", w, res.Level)
					return
				}
				if res.Latency > 0 {
					timed.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()

	if got := c.Tally().Total(); got != workers*perWorker {
		t.Errorf("tally total = %d, want %d", got, workers*perWorker)
	}
	if got := timed.Load(); got != workers*perWorker {
		t.Errorf("results with a latency = %d, want %d", got, workers*perWorker)
	}
}

// TestConcurrentLookupsWithReconfig runs parallel lookups while a writer
// goroutine repeatedly grows and shrinks the cluster. Lookups may land
// before or after any given membership change — the test asserts only what
// must hold in every interleaving: results are well-formed, the coverage
// invariant survives, and the observability layer counts every lookup
// exactly once. Run under -race this is the concurrency contract of the
// lookup engine.
func TestConcurrentLookupsWithReconfig(t *testing.T) {
	const files = 300
	c := newPopulated(t, 12, 4, files)
	const workers, perWorker = 6, 250

	var timed atomic.Int64
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for {
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
			if _, err := c.RemoveMDS(id); err != nil {
				t.Errorf("RemoveMDS(%d): %v", id, err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(7000 + w)))
			for i := 0; i < perWorker; i++ {
				path := "/f" + strconv.Itoa(rng.Intn(files))
				res := c.LookupWith(rng, path, -1)
				// Files re-home when the writer retires a server, so the
				// home may differ between the lookup and any later check;
				// only shape properties are stable across interleavings.
				if res.Found && res.Home < 0 {
					t.Errorf("worker %d: found %s with negative home", w, path)
					return
				}
				if res.Level < 1 || res.Level > 4 {
					t.Errorf("worker %d: level %d out of range", w, res.Level)
					return
				}
				if res.Latency <= 0 {
					t.Errorf("worker %d: non-positive latency", w)
					return
				}
				timed.Add(1)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	writer.Wait()

	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("invariants after concurrent churn: %v", err)
	}
	if got := c.Tally().Total(); got != workers*perWorker {
		t.Errorf("tally total = %d, want %d", got, workers*perWorker)
	}
	if got := timed.Load(); got != workers*perWorker {
		t.Errorf("results with a latency = %d, want %d", got, workers*perWorker)
	}
	// The namespace never shrinks: removals re-home, they do not delete.
	if c.FileCount() != files {
		t.Errorf("file count = %d, want %d", c.FileCount(), files)
	}
}

// TestLookupWithDeterministic verifies that identically seeded serial runs
// of the caller-RNG read path produce identical results on identically
// built clusters — the property the parallel facade's single-worker
// reproducibility rests on.
func TestLookupWithDeterministic(t *testing.T) {
	const files = 200
	run := func() []LookupResult {
		c := newPopulated(t, 9, 3, files)
		rng := rand.New(rand.NewSource(42))
		out := make([]LookupResult, 0, 2*files)
		for i := 0; i < 2*files; i++ {
			out = append(out, c.LookupWith(rng, "/f"+strconv.Itoa(i%files), -1))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at lookup %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}
