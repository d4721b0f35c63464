package proto

import (
	"context"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"ghba/internal/mds"
	"ghba/internal/trace"
)

// TestCreateDeleteOverRealSockets drives the networked mutation pipeline:
// creates home files at daemons over RPC, lookups find them, deletes unlink
// them, and ground truth stays consistent throughout.
func TestCreateDeleteOverRealSockets(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ctx := context.Background()
	c := startPopulated(t, 6, 3, 100)

	created := make(map[string]int)
	for i := 0; i < 60; i++ {
		path := "/new/f" + strconv.Itoa(i)
		home, err := createFile(ctx, c, rng, path)
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
		res, err := c.LookupWith(ctx, rng, path)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || res.Home != home {
			t.Fatalf("lookup of created %s = %+v, want home %d", path, res, home)
		}
	}
	for path := range created {
		existed, err := deleteFile(ctx, c, rng, path)
		if err != nil {
			t.Fatal(err)
		}
		if !existed {
			t.Fatalf("delete of %s reported missing", path)
		}
	}
	if existed, err := deleteFile(ctx, c, rng, "/new/f0"); err != nil || existed {
		t.Fatalf("double delete = (%v, %v)", existed, err)
	}
	// Deleted files are authoritatively gone even though the home's filter
	// is stale until rebuild.
	res, err := c.LookupWith(ctx, rng, "/new/f1")
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
	rng := rand.New(rand.NewSource(42))
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
		if _, err := createFile(ctx, c, rng, "/ship/f"+strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	shipped := c.ReplicaUpdates()
	if shipped == 0 {
		t.Fatal("120 creates shipped no replica updates")
	}
	// Ship-at-every-crossing leaves nothing for a flush to drain.
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if got := c.ReplicaUpdates(); got != shipped {
		t.Errorf("flush after ship-at-every-crossing shipped %d more updates", got-shipped)
	}
	checkInvariants(t, c)
}

// TestShipBatchCoalesces pins the coalescing queue semantics on the wire:
// with a large batch, crossings accumulate without shipping until Flush
// drains them.
func TestShipBatchCoalesces(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ctx := context.Background()
	opts := testOptions(6, 3)
	opts.ShipBatch = 1 << 20
	c, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	for i := 0; i < 120; i++ {
		if _, err := createFile(ctx, c, rng, "/coal/f"+strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	if c.ReplicaUpdates() != 0 {
		t.Fatalf("coalescing queue shipped %d updates before flush", c.ReplicaUpdates())
	}
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	flushed := c.ReplicaUpdates()
	if flushed == 0 {
		t.Fatal("flush shipped nothing after 120 creates")
	}
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if got := c.ReplicaUpdates(); got != flushed {
		t.Errorf("a second flush shipped %d more updates", got-flushed)
	}
	checkInvariants(t, c)
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
	// Every daemon that crossed the ship threshold has shipped, so a second
	// flush finds nothing to ship.
	f := c.fleet.Load()
	for _, id := range f.IDs() {
		if f.Node(id).NeedsShip(mds.DefaultUpdateThresholdBits) {
			t.Errorf("MDS %d is past the ship threshold after flush", id)
		}
	}
	flushed := c.ReplicaUpdates()
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if got := c.ReplicaUpdates(); got != flushed {
		t.Errorf("a second flush shipped %d more updates", got-flushed)
	}
	checkInvariants(t, c)
}

// TestRecreateKeepsOriginalHome is core's test of the same name over real
// sockets: OpCreate on an existing path is an open, never a re-homing, and
// bulk-loading a path twice leaves it where it was — every path stays in its
// original home's store and in no other daemon's.
func TestRecreateKeepsOriginalHome(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
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
		res, err := c.ApplyWith(ctx, rng, trace.Record{Op: trace.OpCreate, Path: path})
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
		if res, err := c.LookupWith(ctx, rng, path); err != nil || !res.Found || res.Home != home {
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
	checkInvariants(t, c)
}

// TestMutationFailureKeepsGroundTruth pins the failed-leg paths: with one
// daemon crashed in place, a create drawn to it fails and leaves no cell, a
// delete of a file it homes fails and leaves its cell, and the creates and deletes that land on live daemons in the same script go
// through — whether the script is dispatched record by record or as vectors.
func TestMutationFailureKeepsGroundTruth(t *testing.T) {
	const files, perStep, seed = 80, 24, 11
	// A dispatcher applies one step of the script and returns the errors it
	// saw: one per record, or a single one for the step as a whole.
	dispatchers := []struct {
		name  string
		apply func(ctx context.Context, c *Cluster, rng *rand.Rand, recs []trace.Record) []error
	}{
		{"ApplyWith", func(ctx context.Context, c *Cluster, rng *rand.Rand, recs []trace.Record) []error {
			errs := make([]error, len(recs))
			for i, rec := range recs {
				_, errs[i] = c.ApplyWith(ctx, rng, rec)
			}
			return errs
		}},
		{"ApplyBatch", func(ctx context.Context, c *Cluster, rng *rand.Rand, recs []trace.Record) []error {
			_, err := c.ApplyBatch(ctx, rng, recs)
			return []error{err}
		}},
	}
	for _, d := range dispatchers {
		t.Run(d.name, func(t *testing.T) {
			ctx := context.Background()
			c := startPopulated(t, 4, 2, files)
			ids := c.MDSIDs()
			victim := ids[1]
			if err := c.KillMDS(victim); err != nil {
				t.Fatal(err)
			}

			// The script: a step of creates, then a step of deletes. target[i]
			// is the daemon recs[i] must reach — a create's draw (replayed from
			// a twin RNG), a delete's current home — and landed is where ground
			// truth holds the path once the record has gone through.
			type step struct {
				what   string
				recs   []trace.Record
				target []int
				landed func(target int) int
				delta  int // FileCount change per record that lands
			}
			creates := step{what: "create", landed: func(target int) int { return target }, delta: +1}
			deletes := step{what: "delete", landed: func(int) int { return -1 }, delta: -1}
			twin := rand.New(rand.NewSource(seed))
			for i := 0; i < perStep; i++ {
				creates.recs = append(creates.recs, trace.Record{Op: trace.OpCreate, Path: "/new/f" + strconv.Itoa(i)})
				creates.target = append(creates.target, ids[twin.Intn(len(ids))])
				path := "/p/f" + strconv.Itoa(i)
				deletes.recs = append(deletes.recs, trace.Record{Op: trace.OpDelete, Path: path})
				deletes.target = append(deletes.target, c.HomeOf(path))
			}

			rng := rand.New(rand.NewSource(seed))
			for _, s := range []step{creates, deletes} {
				live := 0
				for _, target := range s.target {
					if target != victim {
						live++
					}
				}
				if live == 0 || live == len(s.recs) {
					t.Fatalf("%s step: %d of %d records reach live daemons; the script needs both kinds", s.what, live, len(s.recs))
				}
				before := make([]int, len(s.recs))
				for i, rec := range s.recs {
					before[i] = c.HomeOf(rec.Path)
				}
				count := c.FileCount()
				errs := d.apply(ctx, c, rng, s.recs)
				if len(errs) == 1 && errs[0] == nil {
					t.Errorf("%s vector with a leg at dead MDS %d reported no error", s.what, victim)
				}
				for i, rec := range s.recs {
					dead := s.target[i] == victim
					if len(errs) > 1 && (errs[i] != nil) != dead {
						t.Errorf("%s %s at MDS %d (dead: %v): err = %v", s.what, rec.Path, s.target[i], dead, errs[i])
					}
					want := s.landed(s.target[i])
					if dead {
						want = before[i] // the failed leg moved nothing
					}
					if got := c.HomeOf(rec.Path); got != want {
						t.Errorf("after %s of %s at MDS %d (dead: %v): HomeOf = %d, want %d", s.what, rec.Path, s.target[i], dead, got, want)
					}
				}
				if got, want := c.FileCount(), count+s.delta*live; got != want {
					t.Errorf("after the %s step: FileCount = %d, want %d (only the %d records at live homes count)", s.what, got, want, live)
				}
			}

			// The live daemons store exactly what ground truth credits them.
			homed := make(map[int]uint64)
			for i := 0; i < files; i++ {
				homed[c.HomeOf("/p/f"+strconv.Itoa(i))]++
			}
			for _, rec := range creates.recs {
				homed[c.HomeOf(rec.Path)]++
			}
			for _, id := range ids {
				if id == victim {
					continue
				}
				info, err := c.Heartbeat(ctx, id)
				if err != nil {
					t.Fatal(err)
				}
				if info.Files != homed[id] {
					t.Errorf("MDS %d stores %d files, ground truth homes %d there", id, info.Files, homed[id])
				}
			}
		})
	}
}

// TestMixedLegRollsBack pins failed mixed legs: with one daemon
// crashed in place, a vector interleaving creates, deletes and create+delete
// pairs of one path fails, every path whose records went to the dead daemon
// is back where the vector found it, and every path whose records went to a
// live daemon landed. The vector ends with a delete at the dead daemon and a
// recreate of that path drawn elsewhere: the recreate must not run, or the
// path would live at two daemons, since the failed delete leaves its cell.
func TestMixedLegRollsBack(t *testing.T) {
	const files = 80
	ctx := context.Background()
	c := startPopulated(t, 4, 2, files)
	ids := c.MDSIDs()
	victim := ids[1]
	if err := c.KillMDS(victim); err != nil {
		t.Fatal(err)
	}
	moved := ""
	for i := files - 1; i >= 40 && moved == ""; i-- {
		if p := "/p/f" + strconv.Itoa(i); c.HomeOf(p) == victim {
			moved = p
		}
	}
	if moved == "" {
		t.Fatalf("MDS %d homes none of /p/f40…/p/f%d", victim, files-1)
	}
	var recs []trace.Record
	for i := 0; i < 24; i++ {
		fresh := "/mix/f" + strconv.Itoa(i)
		recs = append(recs, trace.Record{Op: trace.OpCreate, Path: fresh})
		if i%3 == 0 {
			recs = append(recs, trace.Record{Op: trace.OpDelete, Path: fresh})
		}
		recs = append(recs, trace.Record{Op: trace.OpDelete, Path: "/p/f" + strconv.Itoa(i)})
	}
	recs = append(recs, trace.Record{Op: trace.OpDelete, Path: moved}, trace.Record{Op: trace.OpCreate, Path: moved})

	// landed is where a fully landed vector (but for the final recreate)
	// leaves each path; target is the daemon its records go to.
	var landed, target map[string]int
	seed := int64(0)
	for pairs := map[bool]bool{}; !pairs[true] || !pairs[false]; {
		seed++
		draws := drawsFor(ids, seed, recs)
		if draws[len(recs)-1] == victim {
			continue
		}
		landed, target = make(map[string]int), make(map[string]int)
		clear(pairs)
		for i, rec := range recs[:len(recs)-1] {
			if _, seen := landed[rec.Path]; !seen {
				landed[rec.Path] = c.HomeOf(rec.Path)
			}
			if rec.Op == trace.OpCreate {
				landed[rec.Path], target[rec.Path] = draws[i], draws[i]
			} else {
				if landed[rec.Path] >= 0 && i > 0 && recs[i-1].Path == rec.Path {
					pairs[target[rec.Path] == victim] = true
				}
				target[rec.Path], landed[rec.Path] = landed[rec.Path], -1
			}
		}
	}
	before := make(map[string]int)
	var paths []string
	for _, rec := range recs {
		if _, seen := before[rec.Path]; !seen {
			before[rec.Path] = c.HomeOf(rec.Path)
			paths = append(paths, rec.Path)
		}
	}

	if _, err := c.ApplyBatch(ctx, rand.New(rand.NewSource(seed)), recs); err == nil {
		t.Fatalf("a vector with legs at dead MDS %d reported no error", victim)
	}
	for _, p := range paths {
		d, want := target[p], landed[p]
		if d == victim {
			want = before[p]
		}
		if got := c.HomeOf(p); got != want {
			t.Errorf("%s (records at MDS %d, dead: %v): HomeOf = %d, want %d", p, d, d == victim, got, want)
		}
	}
	checkInvariants(t, c)
}
