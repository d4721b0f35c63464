package proto

import (
	"context"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"ghba/internal/trace"
)

// TestCreateDeleteOverRealSockets drives the networked mutation pipeline:
// creates home files at daemons over RPC, lookups find them, deletes unlink
// them, and ground truth stays consistent throughout.
func TestCreateDeleteOverRealSockets(t *testing.T) {
	ctx := context.Background()
	c := startPopulated(t, 6, 3, 100)

	created := make(map[string]int)
	for i := 0; i < 60; i++ {
		path := "/new/f" + strconv.Itoa(i)
		home, err := createFile(ctx, c, path)
		if err != nil {
			t.Fatal(err)
		}
		if home < 0 || c.HomeOf(path) != home {
			t.Fatalf("create %s homed at %d, truth %d", path, home, c.HomeOf(path))
		}
		created[path] = home
	}
	if got, want := c.FileCount(), 160; got != want {
		t.Fatalf("FileCount = %d, want %d", got, want)
	}
	for path, home := range created {
		res, err := c.Lookup(ctx, path)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || res.Home != home {
			t.Fatalf("lookup of created %s = %+v, want home %d", path, res, home)
		}
	}
	for path := range created {
		existed, err := deleteFile(ctx, c, path)
		if err != nil {
			t.Fatal(err)
		}
		if !existed {
			t.Fatalf("delete of %s reported missing", path)
		}
	}
	if existed, err := deleteFile(ctx, c, "/new/f0"); err != nil || existed {
		t.Fatalf("double delete = (%v, %v)", existed, err)
	}
	// Deleted files are authoritatively gone even though the home's filter
	// is stale until rebuild.
	res, err := c.Lookup(ctx, "/new/f1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatalf("deleted file still found: %+v", res)
	}
}

// TestCreateShipsReplicaUpdates pins the threshold-crossing protocol: enough
// creates on a cluster with ShipBatch 1 must push filters past the XOR-delta
// threshold and ship replica installs over the wire, and the shipped
// replicas then serve the new files at L2/L3 from other groups' entries.
func TestCreateShipsReplicaUpdates(t *testing.T) {
	ctx := context.Background()
	opts := testOptions(6, 3)
	opts.ShipBatch = 1
	c, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	// ~17 bits set per create at 16 bits/file sizing crosses the 64-bit
	// default threshold within a handful of creates per daemon.
	for i := 0; i < 120; i++ {
		if _, err := createFile(ctx, c, "/ship/f"+strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	if c.ReplicaUpdates() == 0 {
		t.Fatal("120 creates shipped no replica updates")
	}
	if c.PendingShips() != 0 && opts.ShipBatch == 1 {
		t.Errorf("ship-at-every-crossing left %d pending", c.PendingShips())
	}
}

// TestShipBatchCoalesces pins the coalescing queue semantics on the wire:
// with a large batch, crossings accumulate without shipping until Flush
// drains them.
func TestShipBatchCoalesces(t *testing.T) {
	ctx := context.Background()
	opts := testOptions(6, 3)
	opts.ShipBatch = 1 << 20
	c, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	for i := 0; i < 120; i++ {
		if _, err := createFile(ctx, c, "/coal/f"+strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	if c.ReplicaUpdates() != 0 {
		t.Fatalf("coalescing queue shipped %d updates before flush", c.ReplicaUpdates())
	}
	if c.PendingShips() == 0 {
		t.Fatal("no origins marked dirty after 120 creates")
	}
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if c.ReplicaUpdates() == 0 {
		t.Fatal("flush shipped nothing")
	}
	if c.PendingShips() != 0 {
		t.Errorf("flush left %d pending", c.PendingShips())
	}
}

// TestApplyWithMixedWorkload pins Apply's record semantics over RPC: creates
// report Level 0 with the chosen home, creates of existing paths degenerate
// to lookups, deletes report the pre-delete home, absent deletes miss.
func TestApplyWithMixedWorkload(t *testing.T) {
	ctx := context.Background()
	c := startPopulated(t, 6, 3, 100)
	rng := rand.New(rand.NewSource(1))

	res, err := c.ApplyWith(ctx, rng, trace.Record{Op: trace.OpCreate, Path: "/mix/a"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Level != 0 || res.Home != c.HomeOf("/mix/a") {
		t.Fatalf("create = %+v (truth %d)", res, c.HomeOf("/mix/a"))
	}

	// Creating an existing path degenerates to a lookup of it.
	res, err = c.ApplyWith(ctx, rng, trace.Record{Op: trace.OpCreate, Path: "/mix/a"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Level == 0 || res.Home != c.HomeOf("/mix/a") {
		t.Fatalf("degenerate create = %+v", res)
	}

	home := c.HomeOf("/mix/a")
	res, err = c.ApplyWith(ctx, rng, trace.Record{Op: trace.OpDelete, Path: "/mix/a"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Home != home || res.Level != 0 {
		t.Fatalf("delete = %+v, want pre-delete home %d", res, home)
	}

	res, err = c.ApplyWith(ctx, rng, trace.Record{Op: trace.OpDelete, Path: "/mix/never"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found || res.Home != -1 {
		t.Fatalf("absent delete = %+v", res)
	}

	res, err = c.ApplyWith(ctx, rng, trace.Record{Op: trace.OpStat, Path: "/p/f3"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Level < 1 || res.Level > 4 {
		t.Fatalf("stat = %+v", res)
	}
}

// TestConcurrentMutationsAndLookups is the networked write path's race
// stress: parallel workers create, delete and look up disjoint paths over
// real sockets while ships coalesce. Run under -race.
func TestConcurrentMutationsAndLookups(t *testing.T) {
	ctx := context.Background()
	opts := testOptions(6, 3)
	opts.ShipBatch = 8
	c, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	paths := make([]string, 120)
	for i := range paths {
		paths[i] = "/p/f" + strconv.Itoa(i)
	}
	c.Populate(paths)

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(trace.DispatchSeed(7, w)))
			for i := 0; i < 50; i++ {
				var rec trace.Record
				switch i % 3 {
				case 0:
					rec = trace.Record{Op: trace.OpCreate, Path: "/w" + strconv.Itoa(w) + "/c" + strconv.Itoa(i)}
				case 1:
					rec = trace.Record{Op: trace.OpDelete, Path: "/w" + strconv.Itoa(w) + "/c" + strconv.Itoa(i-1)}
				default:
					rec = trace.Record{Op: trace.OpStat, Path: paths[(w*31+i)%len(paths)]}
				}
				if _, err := c.ApplyWith(ctx, rng, rec); err != nil {
					errs <- err
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
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if c.PendingShips() != 0 {
		t.Error("pending ships after flush")
	}
	checkFileCounts(t, c)
}

// TestRecreateKeepsOriginalHome is core's test of the same name over real
// sockets: OpCreate on an existing path is an open, never a re-homing, and
// bulk-loading a path twice leaves it where it was — every path stays in its
// original home's store and in no other daemon's.
func TestRecreateKeepsOriginalHome(t *testing.T) {
	ctx := context.Background()
	c := startPopulated(t, 6, 3, 200)
	homes := make(map[string]int)
	var again []string
	for i := 0; i < 100; i++ {
		path := "/p/f" + strconv.Itoa(i)
		homes[path] = c.HomeOf(path)
		if i >= 50 {
			again = append(again, path)
		}
	}
	for i := 0; i < 50; i++ {
		path := "/p/f" + strconv.Itoa(i)
		res, err := c.Apply(ctx, trace.Record{Op: trace.OpCreate, Path: path})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || res.Home != homes[path] || res.Level == 0 {
			t.Fatalf("re-create of %s = %+v, want an open answering home %d", path, res, homes[path])
		}
	}
	c.Populate(again)
	for path, home := range homes {
		if got := c.HomeOf(path); got != home {
			t.Fatalf("%s moved from MDS %d to %d", path, home, got)
		}
		if res, err := c.Lookup(ctx, path); err != nil || !res.Found || res.Home != home {
			t.Fatalf("lookup of %s = (%+v, %v), want home %d", path, res, err, home)
		}
		for id, ns := range c.servers {
			if has := ns.node.HasFile(path); has != (id == home) {
				t.Fatalf("MDS %d holds %s: %v, home is MDS %d", id, path, has, home)
			}
		}
	}
	if got := c.FileCount(); got != 200 {
		t.Errorf("FileCount = %d, want 200", got)
	}
	checkFileCounts(t, c)
}
