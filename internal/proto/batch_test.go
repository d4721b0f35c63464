package proto

import (
	"context"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"ghba/internal/trace"
)

// mixedRecords builds a deterministic record vector exercising every run
// kind and the tricky orderings: duplicate creates (degenerate opens),
// delete-then-recreate, deletes of absent paths, and reads of both live and
// dead paths.
func mixedRecords(existing, n int) []trace.Record {
	recs := make([]trace.Record, 0, n)
	for i := 0; i < n; i++ {
		switch i % 10 {
		case 0, 1:
			recs = append(recs, trace.Record{Op: trace.OpCreate, Path: "/new/f" + strconv.Itoa(i)})
		case 2:
			// Duplicate create: degenerates to an open.
			recs = append(recs, trace.Record{Op: trace.OpCreate, Path: "/p/f" + strconv.Itoa(i%existing)})
		case 3:
			recs = append(recs, trace.Record{Op: trace.OpDelete, Path: "/p/f" + strconv.Itoa((i*7)%existing)})
		case 4:
			// Delete of a path that may already be gone.
			recs = append(recs, trace.Record{Op: trace.OpDelete, Path: "/p/f" + strconv.Itoa((i*7)%existing)})
		case 5:
			// Recreate a likely-deleted path: cross-kind ordering matters.
			recs = append(recs, trace.Record{Op: trace.OpCreate, Path: "/p/f" + strconv.Itoa(((i-14)*7)%existing)})
		default:
			recs = append(recs, trace.Record{Op: trace.OpOpen, Path: "/p/f" + strconv.Itoa((i*3)%existing)})
		}
	}
	return recs
}

// statRecords wraps paths as the lookup vector every driver sends: OpStat
// records for ApplyBatch.
func statRecords(paths []string) []trace.Record {
	recs := make([]trace.Record, len(paths))
	for i, p := range paths {
		recs[i] = trace.Record{Op: trace.OpStat, Path: p}
	}
	return recs
}

func TestLookupBatchFindsEveryFile(t *testing.T) {
	c := startPopulated(t, 6, 3, 200)
	paths := make([]string, 0, 60)
	for i := 0; i < 50; i++ {
		paths = append(paths, "/p/f"+strconv.Itoa(i*3%200))
	}
	for i := 0; i < 10; i++ {
		paths = append(paths, "/ghost/f"+strconv.Itoa(i))
	}
	rng := rand.New(rand.NewSource(7))
	results, err := c.ApplyBatch(context.Background(), rng, statRecords(paths))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(paths) {
		t.Fatalf("got %d results for %d paths", len(results), len(paths))
	}
	for i, res := range results {
		truth := c.HomeOf(paths[i])
		if truth >= 0 {
			if !res.Found || res.Home != truth {
				t.Errorf("%s = %+v, truth home %d", paths[i], res, truth)
			}
			if res.Level < 1 || res.Level > 4 {
				t.Errorf("%s found at level %d", paths[i], res.Level)
			}
		} else if res.Found || res.Level != 4 {
			t.Errorf("ghost %s = %+v", paths[i], res)
		}
	}
}

// TestApplyBatchMatchesSerialReplay is the batch path's determinism
// contract: a fixed-seed record vector dispatched through ApplyBatch homes
// every file exactly where a serial ApplyWith loop with an equal RNG does,
// and every per-record outcome (home, existence) matches.
func TestApplyBatchMatchesSerialReplay(t *testing.T) {
	serial := startPopulated(t, 6, 3, 100)
	batched := startPopulated(t, 6, 3, 100)
	recs := mixedRecords(100, 300)

	ctx := context.Background()
	rngA := rand.New(rand.NewSource(99))
	serialRes := make([]LookupResult, len(recs))
	for i, rec := range recs {
		res, err := serial.ApplyWith(ctx, rngA, rec)
		if err != nil {
			t.Fatalf("serial op %d: %v", i, err)
		}
		serialRes[i] = res
	}

	rngB := rand.New(rand.NewSource(99))
	batchRes, err := batched.ApplyBatch(ctx, rngB, recs)
	if err != nil {
		t.Fatal(err)
	}

	for i := range recs {
		s, b := serialRes[i], batchRes[i]
		if s.Found != b.Found || s.Home != b.Home {
			t.Errorf("op %d (%v %s): serial {home %d found %v lvl %d}, batch {home %d found %v lvl %d}",
				i, recs[i].Op, recs[i].Path, s.Home, s.Found, s.Level, b.Home, b.Found, b.Level)
		}
	}
	if sc, bc := serial.FileCount(), batched.FileCount(); sc != bc {
		t.Errorf("file counts diverge: serial %d, batch %d", sc, bc)
	}
	// Ground truth agrees path by path.
	for _, rec := range recs {
		if sh, bh := serial.HomeOf(rec.Path), batched.HomeOf(rec.Path); sh != bh {
			t.Errorf("HomeOf(%s): serial %d, batch %d", rec.Path, sh, bh)
		}
	}
}

// TestLongPathIsRefused pins the wire's path limit: a path's length travels
// as a uint16, so a longer path used to wrap its length, corrupt the frame
// it rode in and hand the other paths in that frame wrong answers. Every
// entry point refuses it, naming the limit, before any draw, claim or RPC;
// the same paths sent without it still resolve to their homes.
func TestLongPathIsRefused(t *testing.T) {
	ctx := context.Background()
	c := startPopulated(t, 4, 2, 50)
	long := "/" + strings.Repeat("x", 70_000)
	paths := []string{long}
	for i := 0; i < 10; i++ {
		paths = append(paths, "/p/f"+strconv.Itoa(i))
	}
	refused := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "65535") {
			t.Errorf("%s of a 70,001-byte path: error %v, want one naming the 65535-byte limit", what, err)
		}
	}
	res, err := c.ApplyBatch(ctx, rand.New(rand.NewSource(1)), statRecords(paths))
	refused("ApplyBatch", err)
	for i, r := range res {
		if i > 0 && (!r.Found || r.Home != c.HomeOf(paths[i])) {
			t.Errorf("%s = %+v beside a long path, truth home %d", paths[i], r, c.HomeOf(paths[i]))
		}
	}
	c.ResetRPCCounts()
	for _, op := range []trace.OpType{trace.OpCreate, trace.OpDelete, trace.OpStat} {
		_, err := c.ApplyWith(ctx, rand.New(rand.NewSource(1)), trace.Record{Op: op, Path: long})
		refused("ApplyWith", err)
	}
	_, err = c.Lookup(ctx, long)
	refused("Lookup", err)
	_, err = c.LookupWith(ctx, rand.New(rand.NewSource(1)), long)
	refused("LookupWith", err)
	_, err = c.lookupVia(ctx, long, c.MDSIDs()[0])
	refused("lookupVia", err)
	refused("Populate", c.Populate([]string{"/fresh", long}))
	if n := c.RPCCounts(); len(n) != 0 {
		t.Errorf("refused calls went on the wire: %v", n)
	}
	if c.HomeOf(long) != -1 || c.HomeOf("/fresh") != -1 {
		t.Error("a refused call homed a path")
	}

	res, err = c.ApplyBatch(ctx, rand.New(rand.NewSource(1)), statRecords(paths[1:]))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if want := c.HomeOf(paths[i+1]); !r.Found || r.Home != want {
			t.Errorf("%s = %+v, truth home %d", paths[i+1], r, want)
		}
	}
	checkInvariants(t, c)
}

func TestRPCCountsPerOpcode(t *testing.T) {
	c := startPopulated(t, 4, 2, 50)
	c.ResetRPCCounts()
	rng := rand.New(rand.NewSource(1))
	paths := []string{"/p/f1", "/p/f2", "/p/f3", "/p/f4"}
	if _, err := c.ApplyBatch(context.Background(), rng, statRecords(paths)); err != nil {
		t.Fatal(err)
	}
	counts := c.RPCCounts()
	if counts["lookup_batch"] == 0 {
		t.Errorf("no lookup_batch RPCs counted: %v", counts)
	}
	c.ResetRPCCounts()
	if len(c.RPCCounts()) != 0 {
		t.Error("reset left residual counts")
	}
}

// drawsFor replays ApplyBatch's draws for recs from seed: one per record
// that is not a delete, in op order (-1 for a delete).
func drawsFor(ids []int, seed int64, recs []trace.Record) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, len(recs))
	for i, rec := range recs {
		out[i] = -1
		if rec.Op != trace.OpDelete {
			out[i] = ids[rng.Intn(len(ids))]
		}
	}
	return out
}

// TestApplyBatchWaveRule pins the one-kind mutation wave on hand-built
// vectors whose per-path orderings it must keep: each vector's per-op homes
// and existence equal a serial ApplyWith loop's with an equal RNG, and it
// costs the mutate_batch calls it should — one per home daemon a round
// reaches, so a path re-homed within its wave costs the second daemon one.
func TestApplyBatchWaveRule(t *testing.T) {
	ctx := context.Background()
	serial := startPopulated(t, 6, 3, 100)
	batched := startPopulated(t, 6, 3, 100)
	ids := batched.MDSIDs()
	create := func(p string) trace.Record { return trace.Record{Op: trace.OpCreate, Path: p} }
	del := func(p string) trace.Record { return trace.Record{Op: trace.OpDelete, Path: p} }
	stat := func(p string) trace.Record { return trace.Record{Op: trace.OpStat, Path: p} }
	for _, tc := range []struct {
		name string
		recs []trace.Record
		// sameHome, when set, is whether the first and the last record (both
		// creates) must draw the same daemon.
		sameHome *bool
		rpcs     uint64
	}{
		{"create-delete-create/one home", []trace.Record{create("/w/a"), del("/w/a"), create("/w/a")}, &[]bool{true}[0], 1},
		{"create-delete-create/two homes", []trace.Record{create("/w/b"), del("/w/b"), create("/w/b")}, &[]bool{false}[0], 2},
		{"delete then lookup", []trace.Record{del("/p/f1"), stat("/p/f1"), stat("/p/f2")}, nil, 1},
		{"open", []trace.Record{create("/p/f3"), stat("/p/f3")}, nil, 0},
		{"create then open", []trace.Record{create("/w/c"), create("/w/c"), stat("/w/c")}, nil, 1},
		{"open then delete", []trace.Record{create("/p/f4"), del("/p/f4")}, nil, 1},
		{"double delete", []trace.Record{del("/p/f5"), del("/p/f5")}, nil, 1},
		{"delete of an absent path", []trace.Record{del("/w/never"), stat("/w/never")}, nil, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seed := int64(1)
			for tc.sameHome != nil {
				d := drawsFor(ids, seed, tc.recs)
				if (d[0] == d[len(d)-1]) == *tc.sameHome {
					break
				}
				seed++
			}
			rngA, rngB := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			want := make([]LookupResult, len(tc.recs))
			for i, rec := range tc.recs {
				var err error
				if want[i], err = serial.ApplyWith(ctx, rngA, rec); err != nil {
					t.Fatalf("serial op %d: %v", i, err)
				}
			}
			batched.ResetRPCCounts()
			got, err := batched.ApplyBatch(ctx, rngB, tc.recs)
			if err != nil {
				t.Fatal(err)
			}
			for i, rec := range tc.recs {
				s, b := want[i], got[i]
				if s.Found != b.Found || s.Home != b.Home || (s.Level == 0) != (b.Level == 0) {
					t.Errorf("op %d (%v %s): serial {home %d found %v lvl %d}, batch {home %d found %v lvl %d}",
						i, rec.Op, rec.Path, s.Home, s.Found, s.Level, b.Home, b.Found, b.Level)
				}
				if sh, bh := serial.HomeOf(rec.Path), batched.HomeOf(rec.Path); sh != bh {
					t.Errorf("HomeOf(%s): serial %d, batch %d", rec.Path, sh, bh)
				}
			}
			if n := batched.RPCCounts()["mutate_batch"]; n != tc.rpcs {
				t.Errorf("%d mutate_batch calls, want %d", n, tc.rpcs)
			}
		})
	}
	checkInvariants(t, batched)
}

// TestMutateBatchPerWaveAndHome pins a mutation round's RPC shape over
// generated mixed vectors: each vector's mutate_batch calls equal the
// distinct (wave, home) pairs of its records that reach a daemon — waves,
// draws and homes recomputed here from the vector, ground truth and a twin
// RNG alone.
func TestMutateBatchPerWaveAndHome(t *testing.T) {
	ctx := context.Background()
	gen, err := trace.NewGenerator(trace.Config{Profile: trace.MustMixProfile(50, 25, 25), TIF: 2, FilesPerSubtrace: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Start(testOptions(6, 3))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	var initial []string
	gen.EachInitialPath(func(p string) bool {
		initial = append(initial, p)
		return true
	})
	c.Populate(initial)
	ids := c.MDSIDs()
	for v := 0; v < 4; v++ {
		recs := make([]trace.Record, 128)
		for i := range recs {
			recs[i] = gen.Next()
		}
		seed := int64(v + 1)
		draws := drawsFor(ids, seed, recs)
		homes := make(map[string]int)
		home := func(p string) int {
			if h, ok := homes[p]; ok {
				return h
			}
			homes[p] = c.HomeOf(p)
			return homes[p]
		}
		type pathState struct {
			mutation bool
			wave     int
		}
		last := make(map[string]pathState)
		pairs := make(map[[2]int]bool)
		for i, rec := range recs {
			mut := rec.Op == trace.OpCreate || rec.Op == trace.OpDelete
			w := 0
			if st, ok := last[rec.Path]; ok {
				w = st.wave
				if st.mutation != mut {
					w++
				}
			}
			last[rec.Path] = pathState{mut, w}
			switch h := home(rec.Path); {
			case rec.Op == trace.OpCreate && h < 0:
				homes[rec.Path] = draws[i]
				pairs[[2]int{w, draws[i]}] = true
			case rec.Op == trace.OpDelete && h >= 0:
				homes[rec.Path] = -1
				pairs[[2]int{w, h}] = true
			}
		}
		if len(pairs) < 2 {
			t.Fatalf("vector %d reaches %d (wave, home) pairs; the shape needs several", v, len(pairs))
		}
		c.ResetRPCCounts()
		if _, err := c.ApplyBatch(ctx, rand.New(rand.NewSource(seed)), recs); err != nil {
			t.Fatal(err)
		}
		if got := c.RPCCounts()["mutate_batch"]; got != uint64(len(pairs)) {
			t.Errorf("vector %d: %d mutate_batch calls, %d distinct (wave, home) pairs", v, got, len(pairs))
		}
	}
	checkInvariants(t, c)
}
