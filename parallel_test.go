package ghba

import (
	"context"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"

	"ghba/internal/trace"
)

// populateParallel bulk-loads files paths into b and returns a lookup batch
// cycling through them.
func populateParallel(t testing.TB, b Backend, files, lookups int) []string {
	t.Helper()
	paths := make([]string, files)
	for i := range paths {
		paths[i] = "/par/f" + strconv.Itoa(i)
	}
	if err := b.CreateAll(context.Background(), paths); err != nil {
		t.Fatal(err)
	}
	batch := make([]string, lookups)
	for i := range batch {
		batch[i] = paths[i%files]
	}
	return batch
}

// newParallelSim builds a populated simulation plus a lookup batch cycling
// through its namespace.
func newParallelSim(t testing.TB, files, lookups int) (*Simulation, []string) {
	t.Helper()
	sim, err := New(Config{NumMDS: 20, ExpectedFilesPerMDS: 2_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return sim, populateParallel(t, sim, files, lookups)
}

// homedBackend is a Backend that also exposes ground truth, as both shipped
// backends do.
type homedBackend interface {
	Backend
	HomeOf(path string) int
}

// parallelBackends is the matrix the LookupParallel contract tests run
// over: the simulation, and real loopback daemons (smaller, as every lookup
// there is several socket round trips).
var parallelBackends = []struct {
	name           string
	files, lookups int
	build          func(t *testing.T, files, lookups int) (homedBackend, []string)
}{
	{"sim", 500, 4_000, func(t *testing.T, files, lookups int) (homedBackend, []string) {
		return newParallelSim(t, files, lookups)
	}},
	{"tcp", 200, 600, func(t *testing.T, files, lookups int) (homedBackend, []string) {
		if testing.Short() {
			t.Skip("loopback TCP daemons are not short")
		}
		tcp, err := StartPrototype(PrototypeConfig{
			Config: Config{NumMDS: 6, MaxGroupSize: 3, ExpectedFilesPerMDS: 2_000, Seed: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tcp.Close() })
		return tcp, populateParallel(t, tcp, files, lookups)
	}},
}

// TestLookupParallelSingleWorkerMatchesSerial pins the reproducibility
// contract on both backends: a single-worker parallel run is exactly the
// serial engine driven by worker 0's RNG. Two identically built backends —
// one driven through LookupParallel(batch, 1), one serially through
// LookupWith with the same derived RNG — must agree on every home and level
// and on the per-level tallies; the simulation, whose latencies are
// simulated rather than wall clock, on every latency too.
func TestLookupParallelSingleWorkerMatchesSerial(t *testing.T) {
	for _, tc := range parallelBackends {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			a, batch := tc.build(t, tc.files, tc.lookups)
			b, _ := tc.build(t, tc.files, tc.lookups)
			_, simulated := a.(*Simulation)

			parallel, err := LookupParallel(ctx, a, batch, 1)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(trace.DispatchSeed(b.Seed(), 0)))
			var sumA, sumB time.Duration
			for i, p := range batch {
				serial, err := b.LookupWith(ctx, rng, p)
				if err != nil {
					t.Fatal(err)
				}
				got := parallel[i]
				if !simulated {
					got.Latency, serial.Latency = 0, 0
				}
				sumA += got.Latency
				sumB += serial.Latency
				if got != serial {
					t.Fatalf("lookup %d diverged: parallel %+v, serial %+v", i, got, serial)
				}
			}
			if ca, cb := a.LevelCounts(), b.LevelCounts(); ca != cb {
				t.Errorf("level tallies diverged: %v vs %v", ca, cb)
			}
			if n := time.Duration(len(batch)); sumA/n != sumB/n {
				t.Errorf("mean latency diverged: %v vs %v", sumA/n, sumB/n)
			}
		})
	}
}

// TestLookupParallelManyWorkers checks the parallel engine's correctness
// properties that hold regardless of interleaving, in process and over real
// sockets: every existing file is found at its ground-truth home, results
// line up with their input paths, and the tallies account for every lookup.
func TestLookupParallelManyWorkers(t *testing.T) {
	for _, tc := range parallelBackends {
		t.Run(tc.name, func(t *testing.T) {
			b, batch := tc.build(t, tc.files, tc.lookups)
			results, err := LookupParallel(context.Background(), b, batch, 8)
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != len(batch) {
				t.Fatalf("got %d results for %d paths", len(results), len(batch))
			}
			for i, res := range results {
				if res.Path != batch[i] {
					t.Fatalf("result %d is for %q, want %q", i, res.Path, batch[i])
				}
				if !res.Found {
					t.Fatalf("existing file %s not found", res.Path)
				}
				if truth := b.HomeOf(res.Path); res.Home != truth {
					t.Fatalf("%s resolved to %d, truth %d", res.Path, res.Home, truth)
				}
			}
			var tallied uint64
			for _, n := range b.LevelCounts() {
				tallied += n
			}
			if tallied != uint64(len(batch)) {
				t.Errorf("level tallies account for %d of %d lookups", tallied, len(batch))
			}
		})
	}
}

// TestLookupParallelWithReconfig drives lookups and facade-level
// reconfiguration concurrently, the workload the read/write split exists
// for.
func TestLookupParallelWithReconfig(t *testing.T) {
	sim, batch := newParallelSim(t, 300, 2_000)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			id, _, err := sim.AddMDS(context.Background())
			if err != nil {
				t.Errorf("AddMDS: %v", err)
				return
			}
			if err := sim.RemoveMDS(context.Background(), id); err != nil {
				t.Errorf("RemoveMDS(%d): %v", id, err)
				return
			}
		}
	}()
	results, err := LookupParallel(context.Background(), sim, batch, 4)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	for _, res := range results {
		if !res.Found {
			t.Fatalf("%s lost during reconfiguration", res.Path)
		}
	}
	if err := sim.CheckInvariants(); err != nil {
		t.Fatalf("invariants after parallel churn: %v", err)
	}
}

// TestLookupParallelEdgeCases covers empty input and worker clamping.
func TestLookupParallelEdgeCases(t *testing.T) {
	sim, _ := newParallelSim(t, 10, 10)
	if res, err := LookupParallel(context.Background(), sim, nil, 4); err != nil || res != nil {
		t.Errorf("empty batch returned %v", res)
	}
	// More workers than paths: must clamp, not spawn idle goroutines that
	// index past the batch.
	res, err := LookupParallel(context.Background(), sim, []string{"/par/f1", "/par/f2"}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || !res[0].Found || !res[1].Found {
		t.Errorf("clamped run returned %+v", res)
	}
	// workers < 1 selects GOMAXPROCS.
	res, err = LookupParallel(context.Background(), sim, []string{"/par/f3"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || !res[0].Found {
		t.Errorf("default-worker run returned %+v", res)
	}
}
