package proto

import (
	"context"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"testing"

	"ghba/internal/trace"
)

// TestHomeIndexMatchesModelOverTCP is core's TestHomeIndexMatchesModel over
// real sockets: seeded create/delete/re-create/FailMDS/RestartMDS sequences
// against a reference map[string]int, with the coordinator's tags narrowed
// to 4 bits so that a create meeting a same-tag cell — which asks that
// cell's daemon with a verify_batch — and a delete sent to a daemon that
// does not hold its path — whose existence byte comes back 0 — are the
// rule. After every step HomeOf must answer the model for every path of the
// pool, FileCount its size, and CheckInvariants must hold exactly.
func TestHomeIndexMatchesModelOverTCP(t *testing.T) {
	const pool, steps = 160, 260
	ctx := context.Background()
	paths := make([]string, pool)
	for i := range paths {
		paths[i] = "/m/d" + strconv.Itoa(i%7) + "/f" + strconv.Itoa(i)
	}
	var confirms, misses, fails, rejoins, restarts int
	for _, seed := range []int64{1, 2, 3} {
		c, err := Start(durableOptions(t, 4, 2))
		if err != nil {
			t.Fatal(err)
		}
		c.homes.SetTagBits(4)
		var initial []string
		for i := 0; i < pool; i += 2 {
			initial = append(initial, paths[i])
		}
		if err := c.Populate(initial); err != nil {
			t.Fatal(err)
		}
		// The model starts from the stores, not from the index under test.
		model := make(map[string]int)
		for _, id := range c.MDSIDs() {
			for _, p := range c.servers[id].node.Store().Paths() {
				model[p] = id
			}
		}
		rng := rand.New(rand.NewSource(seed))
		check := func(step int, what string) {
			t.Helper()
			if got := c.FileCount(); got != len(model) {
				t.Fatalf("seed %d step %d (%s): FileCount = %d, model %d", seed, step, what, got, len(model))
			}
			for _, p := range paths {
				want, ok := model[p]
				if !ok {
					want = -1
				}
				if got := c.HomeOf(p); got != want {
					t.Fatalf("seed %d step %d (%s): HomeOf(%s) = %d, model %d", seed, step, what, p, got, want)
				}
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("seed %d step %d (%s): %v", seed, step, what, err)
			}
		}
		check(0, "populate")
		failed := -1           // the daemon FailMDS removed, until it restarts
		var lostPaths []string // what it homed when it failed
		confirmed := c.confirms.Load()
		for step := 1; step <= steps; step++ {
			p := paths[rng.Intn(pool)]
			home, present := model[p]
			var what string
			switch r := rng.Intn(100); {
			case r < 48:
				what = "create " + p
				res, err := c.ApplyWith(ctx, rng, trace.Record{Op: trace.OpCreate, Path: p})
				if err != nil {
					t.Fatalf("seed %d step %d: %s: %v", seed, step, what, err)
				}
				if present {
					if !res.Found || res.Home != home {
						t.Fatalf("seed %d step %d: create of present %s = %+v, model home %d", seed, step, p, res, home)
					}
				} else {
					model[p] = res.Home
				}
			case r < 92:
				what = "delete " + p
				sent := c.RPCCounts()["mutate_batch"]
				res, err := c.ApplyWith(ctx, rng, trace.Record{Op: trace.OpDelete, Path: p})
				if err != nil {
					t.Fatalf("seed %d step %d: %s: %v", seed, step, what, err)
				}
				if res.Found != present || (present && res.Home != home) {
					t.Fatalf("seed %d step %d: delete of %s = %+v, model (%d, %v)", seed, step, p, res, home, present)
				}
				if !present && c.RPCCounts()["mutate_batch"] > sent {
					misses++ // a same-tag cell sent it to a daemon that answered 0
				}
				delete(model, p)
			case r < 96 && failed < 0:
				ids := c.MDSIDs()
				failed = ids[rng.Intn(len(ids))]
				what = "FailMDS " + strconv.Itoa(failed)
				lostPaths = lostPaths[:0]
				for q, h := range model {
					if h == failed {
						lostPaths = append(lostPaths, q)
						delete(model, q)
					}
				}
				rep, err := c.FailMDS(ctx, failed)
				if err != nil {
					t.Fatal(err)
				}
				fails++
				if rep.FilesLost != len(lostPaths) {
					t.Fatalf("seed %d step %d: FailMDS lost %d files, model %d", seed, step, rep.FilesLost, len(lostPaths))
				}
			case r < 98 && failed >= 0:
				what = "RestartMDS " + strconv.Itoa(failed) + " (rejoin)"
				reclaimed, dropped := 0, 0
				sort.Strings(lostPaths)
				for _, q := range lostPaths {
					if _, ok := model[q]; ok {
						dropped++ // homed elsewhere meanwhile: the recovered copy loses
					} else {
						model[q] = failed
						reclaimed++
					}
				}
				rep, err := c.RestartMDS(ctx, failed)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Rejoined || rep.FilesReclaimed != reclaimed || rep.FilesDropped != dropped || rep.TailLost != 0 {
					t.Fatalf("seed %d step %d: %s reported %+v, model reclaims %d and drops %d", seed, step, what, rep, reclaimed, dropped)
				}
				failed = -1
				rejoins++
			default:
				ids := c.MDSIDs()
				id := ids[rng.Intn(len(ids))]
				what = "KillMDS+RestartMDS " + strconv.Itoa(id) + " (in place)"
				if err := c.KillMDS(id); err != nil {
					t.Fatal(err)
				}
				rep, err := c.RestartMDS(ctx, id)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Rejoined || rep.FilesReclaimed != 0 || rep.FilesDropped != 0 || rep.TailLost != 0 {
					t.Fatalf("seed %d step %d: %s reported %+v, want nothing moved", seed, step, what, rep)
				}
				restarts++
			}
			check(step, what)
		}
		confirms += int(c.confirms.Load() - confirmed)
		c.Close()
	}
	t.Logf("%d confirming verify_batch RPCs, %d deletes answered 0 by a same-tag daemon; %d FailMDS, %d rejoins, %d in-place restarts",
		confirms, misses, fails, rejoins, restarts)
	if confirms == 0 {
		t.Error("no create ever met a same-tag cell; the 4-bit seam is not biting")
	}
	if misses == 0 {
		t.Error("no delete of an absent path was ever sent to a same-tag daemon")
	}
}

// TestFullWidthTagsNeverConfirm pins the cost side of the tag confirmation:
// at full 32-bit tags, bulk-loading 24,000 files (the TCP workloads'
// namespace) and running 20,000 mixed operations over it sends no
// confirming verify_batch at all.
func TestFullWidthTagsNeverConfirm(t *testing.T) {
	if testing.Short() {
		t.Skip("24,000 files and 20,000 TCP operations are not short")
	}
	const files, ops, vector = 24_000, 20_000, 256
	ctx := context.Background()
	opts := testOptions(12, 4)
	opts.Node.ExpectedFiles = 4_000
	c, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	paths := make([]string, files)
	for i := range paths {
		paths[i] = "/full/d" + strconv.Itoa(i%97) + "/f" + strconv.Itoa(i)
	}
	if err := c.Populate(paths); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	recs := make([]trace.Record, 0, vector)
	created := 0
	for done := 0; done < ops; done += len(recs) {
		recs = recs[:0]
		for len(recs) < vector && done+len(recs) < ops {
			switch r := rng.Intn(100); {
			case r < 70:
				recs = append(recs, trace.Record{Op: trace.OpStat, Path: paths[rng.Intn(files)]})
			case r < 85:
				recs = append(recs, trace.Record{Op: trace.OpCreate, Path: "/full/new" + strconv.Itoa(created)})
				created++
			default:
				recs = append(recs, trace.Record{Op: trace.OpDelete, Path: paths[rng.Intn(files)]})
			}
		}
		if _, err := c.ApplyBatch(ctx, rng, recs); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.confirms.Load(); n != 0 {
		t.Errorf("%d confirming verify_batch RPCs at full-width tags, want 0", n)
	}
	checkInvariants(t, c)
}

// TestSamePathRace races 4 workers over one shared pool of 16 paths with
// ApplyWith and ApplyBatch creates, deletes and re-creates — the case the
// in-flight table exists for; every other race test keeps its workers'
// paths disjoint. Afterwards no path may be stored at two daemons and
// CheckInvariants must hold. Run it with -race.
func TestSamePathRace(t *testing.T) {
	const workers, iters, pool = 4, 60, 16
	ctx := context.Background()
	c := startPopulated(t, 5, 2, 0)
	paths := make([]string, pool)
	for i := range paths {
		paths[i] = "/race/f" + strconv.Itoa(i)
	}
	if err := c.Populate(paths[:pool/2]); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(trace.DispatchSeed(13, w)))
			record := func() trace.Record {
				op := trace.OpCreate
				if rng.Intn(2) == 0 {
					op = trace.OpDelete
				}
				return trace.Record{Op: op, Path: paths[rng.Intn(pool)]}
			}
			for i := 0; i < iters; i++ {
				var err error
				if i%2 == 0 {
					_, err = c.ApplyWith(ctx, rng, record())
				} else {
					recs := make([]trace.Record, 1+rng.Intn(8))
					for k := range recs {
						recs[k] = record()
					}
					_, err = c.ApplyBatch(ctx, rng, recs)
				}
				if err != nil {
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
	for _, p := range paths {
		var at []int
		for _, id := range c.MDSIDs() {
			if c.servers[id].node.HasFile(p) {
				at = append(at, id)
			}
		}
		if len(at) > 1 {
			t.Errorf("%s is stored at daemons %v", p, at)
		}
		if want := -1; len(at) == 1 {
			want = at[0]
			if got := c.HomeOf(p); got != want {
				t.Errorf("HomeOf(%s) = %d, stored at %d", p, got, want)
			}
		}
	}
	checkInvariants(t, c)
}
