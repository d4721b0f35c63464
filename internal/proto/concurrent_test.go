package proto

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"ghba/internal/trace"
)

// TestParallelLookupsDuringAddMDSChurn is the race stress test: parallel
// lookup workers run flat out while a writer goroutine grows the cluster,
// exercising the read/write split on membership state, the connection
// pools, and registration-after-reconfiguration. Run under -race.
func TestParallelLookupsDuringAddMDSChurn(t *testing.T) {
	c := startPopulated(t, 6, 3, 300)

	var wg sync.WaitGroup
	errs := make(chan error, 5)

	// Churn writer: three joins with lookup traffic in flight throughout.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if _, _, err := c.AddMDS(context.Background()); err != nil {
				errs <- fmt.Errorf("AddMDS %d: %w", i, err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(trace.DispatchSeed(99, w)))
			for i := 0; i < 60; i++ {
				path := "/p/f" + strconv.Itoa((w*97+i)%300)
				res, err := c.LookupWith(context.Background(), rng, path)
				if err != nil {
					errs <- fmt.Errorf("worker %d lookup %s: %w", w, path, err)
					return
				}
				if !res.Found {
					errs <- fmt.Errorf("worker %d lost %s during churn", w, path)
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
	if n := c.NumMDS(); n != 9 {
		t.Errorf("NumMDS after churn = %d, want 9", n)
	}
	// The grown cluster still resolves everything.
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 300; i += 17 {
		path := "/p/f" + strconv.Itoa(i)
		res, err := c.LookupWith(context.Background(), rng, path)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || res.Home != c.HomeOf(path) {
			t.Fatalf("post-churn lookup %s = %+v", path, res)
		}
	}
}

// TestAddMDSDeterministicReplicaOffload pins that two identically seeded
// clusters performing the same join end with identical replica placement and
// identical reports — map iteration order must not pick which replicas
// migrate.
func TestAddMDSDeterministicReplicaOffload(t *testing.T) {
	// 7 servers, M=4 → groups of 4 and 3; the join lands in the second
	// with replica offload.
	a := startPopulated(t, 7, 4, 100)
	b := startPopulated(t, 7, 4, 100)
	_, aMsgs, err := a.AddMDS(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	_, bMsgs, err := b.AddMDS(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if aMsgs != bMsgs {
		t.Errorf("join reports diverged: %+v vs %+v", aMsgs, bMsgs)
	}
	if !reflect.DeepEqual(a.Layout(), b.Layout()) {
		t.Errorf("groups or replica placement diverged:\n a: %v\n b: %v", a.Layout().Groups(), b.Layout().Groups())
	}
}

// TestAddMDSFailureRollsBackCoordinatorState pins the error-path contract:
// when reconfiguration fails mid-flight (here: a group member died, so its
// replica offload RPC fails), the newcomer must not linger in any group or
// holder entry — otherwise later lookups would multicast to an unknown MDS
// and Populate would panic on the missing server.
func TestAddMDSFailureRollsBackCoordinatorState(t *testing.T) {
	c := startPopulated(t, 7, 4, 100)
	// Groups are {0,1,2,3} and {4,5,6}; the join lands in the second,
	// whose member 4 must offload replicas to the newcomer. Kill 4 so
	// that opDropReplica fails.
	c.servers[4].Close()
	if _, _, err := c.AddMDS(context.Background()); err == nil {
		t.Fatal("AddMDS against a dead group member succeeded")
	}
	if n := c.NumMDS(); n != 7 {
		t.Errorf("NumMDS after failed join = %d, want 7", n)
	}
	if g := c.Layout().GroupOf(7); g != nil {
		t.Errorf("abandoned newcomer still in group %d", g.ID)
	}
	for _, g := range c.Layout().Groups() {
		for _, r := range g.Replicas {
			if r.Origin == 7 || r.Holder == 7 {
				t.Errorf("group %d still references abandoned newcomer: %d→%d", g.ID, r.Origin, r.Holder)
			}
		}
	}
	// Lookups that stay inside the healthy group still resolve.
	for i := 0; i < 100; i++ {
		p := "/p/f" + strconv.Itoa(i)
		if home := c.HomeOf(p); home >= 0 && home <= 3 {
			res, err := c.lookupVia(context.Background(), p, 0)
			if err != nil {
				t.Fatalf("post-rollback lookup %s: %v", p, err)
			}
			if !res.Found || res.Home != home {
				t.Fatalf("post-rollback lookup %s = %+v (truth %d)", p, res, home)
			}
		}
	}
}

// TestLookupsSurviveDeadDaemon pins that a dead daemon costs only the
// lookups that need it: its L1 observations wait in its backlog until a leg
// enters there. With daemon 3 closed, 128 lookups entering at 0 for paths
// homed elsewhere — groups are {0,1} and {2,3}, so none of them asks 3 — all
// return without error, and every survivor then serves the last of them at
// L1.
func TestLookupsSurviveDeadDaemon(t *testing.T) {
	c := startPopulated(t, 4, 2, 300)
	c.servers[3].Close()
	ctx := context.Background()
	hot := ""
	for i, sent := 0, 0; sent < 128; i++ {
		p := "/p/f" + strconv.Itoa(i)
		home := c.HomeOf(p)
		if home == 3 {
			continue
		}
		res, err := c.lookupVia(ctx, p, 0)
		if err != nil {
			t.Fatalf("lookup %d (%s) with daemon 3 dead: %v", sent, p, err)
		}
		if !res.Found || res.Home != home {
			t.Fatalf("lookup %s = %+v, ground truth home %d", p, res, home)
		}
		hot = p
		sent++
	}
	for _, id := range []int{0, 1, 2} {
		res, err := c.lookupVia(ctx, hot, id)
		if err != nil {
			t.Fatal(err)
		}
		if res.Level != 1 {
			t.Errorf("%s entering at survivor %d served at level %d, want 1", hot, id, res.Level)
		}
	}
}

// TestLockFreeAccessorsUnderChurn reads the membership accessors that load
// the published fleet without a lock — MDSIDs, NumMDS, Layout — while a
// writer joins daemons and fails the oldest, the survivors' IDs growing
// non-contiguous. Every answer must be one whole snapshot: IDs sorted and
// unique, and a layout sound for the members its own groups name. Run it
// under -race.
func TestLockFreeAccessorsUnderChurn(t *testing.T) {
	c := startPopulated(t, 6, 3, 200)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 6; i++ {
			if _, _, err := c.AddMDS(ctx); err != nil {
				t.Errorf("AddMDS: %v", err)
				return
			}
			if i%2 == 0 {
				oldest := c.MDSIDs()[0]
				if _, err := c.FailMDS(ctx, oldest); err != nil {
					t.Errorf("FailMDS(%d): %v", oldest, err)
					return
				}
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
				if c.NumMDS() < 1 {
					t.Errorf("NumMDS() = %d", c.NumMDS())
					return
				}
				l := c.Layout()
				var members []int
				for _, g := range l.Groups() {
					members = append(members, g.Members...)
				}
				slices.Sort(members)
				if err := l.Check(members); err != nil {
					t.Errorf("Layout(): %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	checkInvariants(t, c)
}

// TestNoObservationLostAcrossLanes runs lookup vectors from two goroutines
// on one cluster, so their entry legs take parts of the same backlogs while
// their walks append to them, and then looks up every path they found once
// through each daemon as entry: each must be served at L1, so no observation
// was lost between the lanes. Of 120 lookups, a multicast every 64 would
// leave the last 45 to 56 undelivered. Run under -race.
func TestNoObservationLostAcrossLanes(t *testing.T) {
	c := startPopulated(t, 6, 3, 300)
	ctx := context.Background()
	const lanes, vectors, width = 2, 4, 15
	found := make([][]string, lanes)
	errs := make([]error, lanes)
	var wg sync.WaitGroup
	for w := 0; w < lanes; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(trace.DispatchSeed(3, w)))
			for v := 0; v < vectors; v++ {
				recs := make([]trace.Record, width)
				for k := range recs {
					recs[k] = trace.Record{Op: trace.OpStat, Path: "/p/f" + strconv.Itoa((w*vectors+v)*width+k)}
				}
				res, err := c.ApplyBatch(ctx, rng, recs)
				if err != nil {
					errs[w] = err
					return
				}
				for _, r := range res {
					if r.Found {
						found[w] = append(found[w], r.Path)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("lane %d: %v", w, err)
		}
	}
	paths := slices.Concat(found...)
	if len(paths) != lanes*vectors*width {
		t.Fatalf("the lanes found %d of %d populated paths", len(paths), lanes*vectors*width)
	}
	// One vector per entry daemon: its L1 answers before it learns what the
	// vector itself confirms.
	for _, id := range c.MDSIDs() {
		res, err := c.lookupVector(ctx, paths, slices.Repeat([]int{id}, len(paths)))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			if r.Level != 1 {
				t.Fatalf("%s entering at %d served at level %d, want 1: an observation was lost", r.Path, id, r.Level)
			}
		}
	}
}

// TestFullBacklogIsDelivered pins the backlog bound: a walk that leaves a
// member's backlog at maxBacklog delivers it at once, as a path-less
// lookup_batch, and that member then serves the walk's paths at L1 before
// any leg of its own carried them.
func TestFullBacklogIsDelivered(t *testing.T) {
	c := startPopulated(t, 3, 3, maxBacklog)
	ctx := context.Background()
	paths := make([]string, maxBacklog)
	entries := make([]int, maxBacklog)
	for i := range paths {
		paths[i] = "/p/f" + strconv.Itoa(i)
	}
	before := c.RPCCounts()["lookup_batch"]
	if _, err := c.lookupVector(ctx, paths, entries); err != nil {
		t.Fatal(err)
	}
	// One entry leg, then one delivery per member: every backlog filled.
	if got := c.RPCCounts()["lookup_batch"] - before; got != 1+3 {
		t.Fatalf("%d lookup_batch RPCs, want the entry leg and 3 deliveries", got)
	}
	c.obsMu.Lock()
	for id, b := range c.backlog {
		if len(b) != 0 {
			t.Errorf("MDS %d kept a backlog of %d", id, len(b))
		}
	}
	c.obsMu.Unlock()
	last := paths[len(paths)-1]
	resp, err := c.call(ctx, 2, opLookupBatch, encodeLookupRequest(nil, []string{last}))
	if err != nil {
		t.Fatal(err)
	}
	lists, err := decodeHitsVec(resp, 2)
	if err != nil {
		t.Fatal(err)
	}
	if home := c.HomeOf(last); !slices.Equal(lists[0], []int{home}) {
		t.Errorf("MDS 2's L1 names %v for %s, want [%d]", lists[0], last, home)
	}
}
