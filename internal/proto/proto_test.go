package proto

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ghba/internal/group"
	"ghba/internal/mds"
	"ghba/internal/trace"
)

// testOptions sizes an n-daemon cluster with groups of at most m; m = 1 is
// the HBA baseline.
func testOptions(n, m int) Options {
	return Options{
		N: n,
		M: m,
		Node: mds.Config{
			ExpectedFiles:  2_000,
			BitsPerFile:    16,
			LRUCapacity:    256,
			LRUBitsPerFile: 16,
		},
		Seed: 1,
	}
}

func startPopulated(t *testing.T, n, m, files int) *Cluster {
	t.Helper()
	c, err := Start(testOptions(n, m))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	paths := make([]string, files)
	for i := range paths {
		paths[i] = "/p/f" + strconv.Itoa(i)
	}
	c.Populate(paths)
	return c
}

// lookupVia resolves path with the given entry MDS: the vector walk over a
// vector of one.
func (c *Cluster) lookupVia(ctx context.Context, path string, entry int) (LookupResult, error) {
	if err := checkPaths(path); err != nil {
		return LookupResult{}, err
	}
	res, err := c.lookupVector(ctx, []string{path}, []int{entry})
	if res == nil {
		return LookupResult{}, err
	}
	return res[0], err
}

// createFile and deleteFile issue one create or delete the way every driver
// does — through ApplyWith, drawing from the caller's RNG — and unpack the
// result the tests assert on: the create's home, whether the deleted path
// existed.
func createFile(ctx context.Context, c *Cluster, rng *rand.Rand, path string) (int, error) {
	res, err := c.ApplyWith(ctx, rng, trace.Record{Op: trace.OpCreate, Path: path})
	return res.Home, err
}

func deleteFile(ctx context.Context, c *Cluster, rng *rand.Rand, path string) (bool, error) {
	res, err := c.ApplyWith(ctx, rng, trace.Record{Op: trace.OpDelete, Path: path})
	return res.Found, err
}

// checkInvariants asserts Cluster.CheckInvariants at a quiescent point: the
// layout, every replica array and the namespace, checked on the daemons.
func checkInvariants(t *testing.T, c *Cluster) {
	t.Helper()
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// A replica that drifted from what its origin last shipped fails the check
// on the daemons too, as it does in the simulator.
func TestCheckInvariantsCatchesDriftedReplica(t *testing.T) {
	c := startPopulated(t, 6, 3, 200)
	checkInvariants(t, c)
	r := c.Layout().Groups()[0].Replicas[0]
	stale := c.servers[r.Origin].node.Shipped().Clone()
	stale.AddString("/never-shipped")
	c.servers[r.Holder].node.InstallReplica(r.Origin, stale)
	err := c.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "last shipped") {
		t.Fatalf("CheckInvariants = %v with MDS %d's replica of %d drifted", err, r.Holder, r.Origin)
	}
}

func TestStartValidation(t *testing.T) {
	if _, err := Start(Options{N: 0, M: 3}); err == nil {
		t.Error("N=0 accepted")
	}
	if _, err := Start(Options{N: 3, M: 0}); err == nil {
		t.Error("M=0 accepted")
	}
}

func TestGHBALookupOverRealSockets(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := startPopulated(t, 6, 3, 200)
	for i := 0; i < 100; i++ {
		path := "/p/f" + strconv.Itoa(i)
		res, err := c.LookupWith(context.Background(), rng, path)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || res.Home != c.HomeOf(path) {
			t.Fatalf("lookup %s = %+v (truth %d)", path, res, c.HomeOf(path))
		}
		if res.Latency <= 0 {
			t.Fatalf("implausible measurement: %+v", res)
		}
	}
}

func TestHBALookupOverRealSockets(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := startPopulated(t, 6, 1, 200)
	for i := 0; i < 100; i++ {
		path := "/p/f" + strconv.Itoa(i)
		res, err := c.LookupWith(context.Background(), rng, path)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || res.Home != c.HomeOf(path) {
			t.Fatalf("lookup %s = %+v", path, res)
		}
	}
}

func TestLookupMissingFile(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, m := range []int{2, 1} {
		c := startPopulated(t, 4, m, 50)
		res, err := c.LookupWith(context.Background(), rng, "/ghost")
		if err != nil {
			t.Fatal(err)
		}
		if res.Found || res.Level != 4 {
			t.Errorf("M=%d: ghost = %+v", m, res)
		}
	}
}

func TestL1LearningAfterBatchFlush(t *testing.T) {
	c := startPopulated(t, 6, 3, 200)
	const hot = "/p/f7"
	// Drive enough confirmed lookups to flush the observation batch; the
	// hot path is among them, so every daemon's LRU array learns it.
	for i := 0; i < 70; i++ {
		path := hot
		if i%2 == 0 {
			path = "/p/f" + strconv.Itoa(i%200)
		}
		if _, err := c.lookupVia(context.Background(), path, i%6); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.lookupVia(context.Background(), hot, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Level != 1 {
		t.Errorf("hot lookup after batch flush served at level %d, want 1", res.Level)
	}
}

func TestConcurrentLookups(t *testing.T) {
	c := startPopulated(t, 6, 3, 300)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				path := "/p/f" + strconv.Itoa((w*50+i)%300)
				res, err := c.lookupVia(context.Background(), path, w)
				if err != nil {
					errs <- err
					return
				}
				if !res.Found {
					errs <- fmt.Errorf("%s not found", path)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestAddMDSMessageCounts is the heart of Fig 15: adding a node to HBA costs
// ~2N messages; to a G-HBA group with room it costs a small group-local
// amount plus one filter and one IDBFA multicast per other group. (A split of
// a full group re-mirrors both halves and costs what an HBA join does; it is
// the amortized-rare case.)
func TestAddMDSMessageCounts(t *testing.T) {
	const n = 12
	hba := startPopulated(t, n, 1, 100)
	_, hbaMsgs, err := hba.AddMDS(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if hbaMsgs.Messages < 2*n {
		t.Errorf("HBA join = %d messages, want ≥ 2N = %d", hbaMsgs.Messages, 2*n)
	}

	ghba := startPopulated(t, n, 5, 100) // three groups of 4, each with room
	_, ghbaMsgs, err := ghba.AddMDS(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ghbaMsgs.Messages >= hbaMsgs.Messages {
		t.Errorf("G-HBA join (%d msgs) not cheaper than HBA (%d msgs)", ghbaMsgs.Messages, hbaMsgs.Messages)
	}
}

func TestAddMDSJoinThenLookup(t *testing.T) {
	// 7 servers, M=4 → groups 4+3, room in the second.
	c := startPopulated(t, 7, 4, 200)
	id, msgs, err := c.AddMDS(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if msgs.Messages == 0 || msgs.ReplicasMigrated == 0 {
		t.Errorf("join cost nothing: %+v", msgs)
	}
	if c.NumMDS() != 8 {
		t.Errorf("NumMDS = %d", c.NumMDS())
	}
	// Lookups still resolve, including via the newcomer.
	for i := 0; i < 50; i++ {
		path := "/p/f" + strconv.Itoa(i*3%200)
		res, err := c.lookupVia(context.Background(), path, id)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || res.Home != c.HomeOf(path) {
			t.Fatalf("post-join lookup %s = %+v", path, res)
		}
	}
}

func TestAddMDSSplitThenLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := startPopulated(t, 4, 2, 150)
	if _, _, err := c.AddMDS(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 150; i += 11 {
		path := "/p/f" + strconv.Itoa(i)
		res, err := c.LookupWith(context.Background(), rng, path)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || res.Home != c.HomeOf(path) {
			t.Fatalf("post-split lookup %s = %+v", path, res)
		}
	}
}

// TestSplitKeepsOneReplicaPerGroup pins the split path's placement: the
// split exchange already hands the newcomer's filter to the victim group, so
// the distribution that follows must not install it there a second time.
// M = 1 is the HBA baseline, where every join is a split.
func TestSplitKeepsOneReplicaPerGroup(t *testing.T) {
	for _, tc := range []struct{ n, m int }{{6, 3}, {4, 2}, {5, 1}} {
		c := startPopulated(t, tc.n, tc.m, 60)
		checkInvariants(t, c)
		for k := 0; k < 3; k++ {
			if _, _, err := c.AddMDS(context.Background()); err != nil {
				t.Fatal(err)
			}
			checkInvariants(t, c)
		}
		if t.Failed() {
			t.Fatalf("N=%d M=%d: placement invariant broken", tc.n, tc.m)
		}
	}
}

// TestAddMDSSeriesIsSeedStable pins that reconfiguration is a pure function
// of the seed: two clusters built alike report the same cost join for
// join. Ten joins at N=8, M=4 pass through a tie between equally full
// groups, which is where map iteration order used to pick the group — a coin
// flip per cluster, hence the repeats.
func TestAddMDSSeriesIsSeedStable(t *testing.T) {
	series := func() []group.Report {
		c := startPopulated(t, 8, 4, 40)
		out := make([]group.Report, 10)
		for k := range out {
			_, msgs, err := c.AddMDS(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			out[k] = msgs
		}
		return out
	}
	want := series()
	for run := 0; run < 7; run++ {
		if got := series(); !reflect.DeepEqual(got, want) {
			t.Fatalf("same seed, different join costs:\n  %v\n  %v", want, got)
		}
	}
}

// TestDiskPenaltySlowsOverloadedNodes verifies the prototype's memory-
// pressure emulation: HBA daemons whose segment arrays outgrow their byte
// budget serve queries measurably slower than unconstrained ones.
func TestDiskPenaltySlowsOverloadedNodes(t *testing.T) {
	// Equally seeded, so both clusters enter every lookup at the same daemon.
	fastRNG, slowRNG := rand.New(rand.NewSource(42)), rand.New(rand.NewSource(42))
	fast := startPopulated(t, 6, 1, 100)
	slowOpts := testOptions(6, 1)
	slowOpts.MemoryBudgetBytes = 4_000 // one 4,000-byte filter of six resident
	slowOpts.DiskPenalty = 2 * time.Millisecond
	slow, err := Start(slowOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(slow.Close)
	paths := make([]string, 100)
	for i := range paths {
		paths[i] = "/p/f" + strconv.Itoa(i)
	}
	slow.Populate(paths)

	var fastTotal, slowTotal time.Duration
	for i := 0; i < 30; i++ {
		path := "/p/f" + strconv.Itoa(i)
		rf, err := fast.LookupWith(context.Background(), fastRNG, path)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := slow.LookupWith(context.Background(), slowRNG, path)
		if err != nil {
			t.Fatal(err)
		}
		fastTotal += rf.Latency
		slowTotal += rs.Latency
	}
	if slowTotal < fastTotal+30*time.Millisecond {
		t.Errorf("disk penalty invisible: slow %v vs fast %v", slowTotal, fastTotal)
	}
}

func TestMessagesCounterAndReset(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := startPopulated(t, 4, 2, 50)
	if _, err := c.LookupWith(context.Background(), rng, "/p/f1"); err != nil {
		t.Fatal(err)
	}
	if len(c.RPCCounts()) == 0 {
		t.Error("no messages counted")
	}
	c.ResetRPCCounts()
	if len(c.RPCCounts()) != 0 {
		t.Error("reset failed")
	}
}
