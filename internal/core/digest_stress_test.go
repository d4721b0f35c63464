package core

import (
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"ghba/internal/trace"
)

// TestDigestLookupParallelStress hammers the hash-once read path — pooled
// scratch digests, reused hit buffers, the L3 small-int set — from many
// goroutines with a writer churning the namespace. Under -race this is the
// proof that per-lookup scratch never leaks between concurrent lookups: a
// shared digest or buffer would surface as a data race or as a lookup
// resolving to a home that was never the path's ground truth.
func TestDigestLookupParallelStress(t *testing.T) {
	const files = 500
	c := newPopulated(t, 12, 4, files)

	const workers, perWorker = 8, 500
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		rng := rand.New(rand.NewSource(2))
		// Churn extra files so lookups race real mutations of the filters
		// the digests probe.
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p := "/churn" + strconv.Itoa(i%100)
			c.ApplyWith(rng, trace.Record{Op: trace.OpCreate, Path: p})
			c.ApplyWith(rng, trace.Record{Op: trace.OpDelete, Path: p})
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(3000 + w)))
			for i := 0; i < perWorker; i++ {
				switch i % 3 {
				case 0, 1: // stable file: must resolve to ground truth
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
				case 2: // definitively absent: must miss with Home -1
					path := "/absent/w" + strconv.Itoa(w) + "/" + strconv.Itoa(i)
					res := c.LookupWith(rng, path, -1)
					if res.Found || res.Home != -1 {
						t.Errorf("worker %d: absent %s returned (home=%d found=%v)",
							w, path, res.Home, res.Found)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	writer.Wait()

	if err := c.CheckInvariants(); err != nil {
		t.Errorf("invariants violated after stress: %v", err)
	}
}
