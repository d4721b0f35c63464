package proto

import (
	"context"
	"math/rand"
	"strconv"
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

// TestApplyBatchOverClassicTransport pins that the batch RPCs are legal
// over the classic call-per-connection protocol too.
func TestApplyBatchOverClassicTransport(t *testing.T) {
	opts := testOptions(4, 2)
	opts.Transport = TransportClassic
	c, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if c.Transport() != TransportClassic {
		t.Fatalf("Transport() = %q", c.Transport())
	}
	paths := make([]string, 50)
	for i := range paths {
		paths[i] = "/p/f" + strconv.Itoa(i)
	}
	c.Populate(paths)
	rng := rand.New(rand.NewSource(3))
	results, err := c.ApplyBatch(context.Background(), rng, mixedRecords(50, 80))
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Level > 0 && res.Found && res.Home < 0 {
			t.Errorf("op %d: found with no home: %+v", i, res)
		}
	}
}

func TestTransportValidationAndDefault(t *testing.T) {
	opts := testOptions(2, 2)
	opts.Transport = "carrier-pigeon"
	if _, err := Start(opts); err == nil {
		t.Error("unknown transport accepted")
	}
	c := startPopulated(t, 2, 2, 10)
	if c.Transport() != TransportMux {
		t.Errorf("default transport = %q, want %q", c.Transport(), TransportMux)
	}
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
