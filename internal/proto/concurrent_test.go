package proto

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
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
	for i := 0; i < 300; i += 17 {
		path := "/p/f" + strconv.Itoa(i)
		res, err := c.Lookup(context.Background(), path)
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
	// Lookups that stay inside the healthy group still resolve. Stay
	// under c.obsBatch total so the observation flush (which would
	// multicast into the dead daemon) never fires here.
	checked := 0
	for i := 0; i < 100 && checked < c.obsBatch-1; i++ {
		p := "/p/f" + strconv.Itoa(i)
		if home := c.HomeOf(p); home >= 0 && home <= 3 {
			checked++
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

// TestObserveBatchSurvivesDeadDaemon pins the multicast-failure fix: when
// one daemon is unreachable at flush time, the LRU observation batch still
// reaches every other daemon (their next lookups answer at L1) and the
// failure is reported rather than silently dropping the batch.
func TestObserveBatchSurvivesDeadDaemon(t *testing.T) {
	c := startPopulated(t, 4, 2, 80)
	// Pick a path homed anywhere but daemon 3, and kill daemon 3. Groups
	// are {0,1} and {2,3}, so lookups entering at 0 never consult 3
	// before resolving at L2/L3.
	hot := ""
	for i := 0; i < 80; i++ {
		p := "/p/f" + strconv.Itoa(i)
		if c.HomeOf(p) != 3 {
			hot = p
			break
		}
	}
	if hot == "" {
		t.Fatal("all files homed at daemon 3")
	}
	c.servers[3].Close()

	var flushErr error
	for i := 0; i < c.obsBatch; i++ {
		res, err := c.lookupVia(context.Background(), hot, 0)
		if err != nil {
			flushErr = err
		}
		if !res.Found {
			t.Fatalf("lookup %d of %s not found", i, hot)
		}
	}
	if flushErr == nil {
		t.Fatal("flush against dead daemon reported no error")
	}
	if !strings.Contains(flushErr.Error(), "MDS 3") {
		t.Errorf("flush error does not name the dead daemon: %v", flushErr)
	}
	// The surviving daemons received the batch despite the failure.
	res, err := c.lookupVia(context.Background(), hot, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Level != 1 {
		t.Errorf("post-flush lookup served at level %d, want 1 (batch lost?)", res.Level)
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
