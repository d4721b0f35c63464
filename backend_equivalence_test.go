package ghba_test

// Cross-backend equivalence: the unified Backend API's core promise is that
// the in-process simulation and the TCP prototype implement the same
// protocol. With mirrored configurations (identical seeds, filter
// geometries, XOR-delta thresholds, per-lookup L1 learning) a fixed-seed
// mixed trace must replay onto identical homes, identical existence bits,
// and identical hierarchy-level tallies on both transports — any drift in
// placement draws, replica shipping, L1 observation, or descent logic shows
// up as a per-op mismatch here.

import (
	"context"
	"fmt"
	"testing"

	"ghba"
	"ghba/internal/trace"
)

// equivalenceConfig mirrors every knob that influences observable protocol
// behaviour across the two backends.
func equivalenceConfig() ghba.Config {
	return ghba.Config{
		NumMDS:              9,
		MaxGroupSize:        3, // 3 groups of 3 under the shared even partition
		ExpectedFilesPerMDS: 400,
		ShipBatch:           1, // ship at every threshold crossing, the paper's protocol
		Seed:                5,
	}
}

func TestCrossBackendEquivalence(t *testing.T) {
	runCrossBackendEquivalence(t, equivalenceConfig())
}

// TestCrossBackendEquivalenceHBA pins sim ≡ TCP for the baseline too: with
// groups of one both backends mirror every filter on every server, skip L3,
// and ship every update system-wide.
func TestCrossBackendEquivalenceHBA(t *testing.T) {
	cfg := equivalenceConfig()
	cfg.MaxGroupSize = 1
	runCrossBackendEquivalence(t, cfg)
}

func runCrossBackendEquivalence(t *testing.T, cfg ghba.Config) {
	if testing.Short() {
		t.Skip("loopback TCP replay is not short")
	}
	ctx := context.Background()

	sim, err := ghba.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The simulation learns L1 observations at every found lookup; each
	// daemon's entry leg carries every lookup confirmed before it, so its
	// L1 array follows the same per-lookup schedule.
	tcp, err := ghba.StartPrototype(ghba.PrototypeConfig{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()

	// One mixed trace, materialized once so both backends replay the exact
	// same operation sequence: 60% lookups, 25% creates, 15% deletes —
	// enough mutation pressure that XOR-delta crossings and replica ships
	// fire many times.
	gen, err := trace.NewGenerator(trace.Config{
		Profile:          trace.MustMixProfile(60, 25, 15),
		TIF:              2,
		FilesPerSubtrace: 400,
		Seed:             11,
	})
	if err != nil {
		t.Fatal(err)
	}
	var initial []string
	gen.EachInitialPath(func(p string) bool {
		initial = append(initial, p)
		return true
	})
	ops := make([]ghba.Op, 1_500)
	touched := make(map[string]struct{})
	for i := range ops {
		ops[i] = ghba.TraceOp(gen.Next())
		touched[ops[i].Path] = struct{}{}
	}

	backends := []ghba.Backend{sim, tcp}
	results := make([][]ghba.Result, len(backends))
	for i, b := range backends {
		if err := b.CreateAll(ctx, initial); err != nil {
			t.Fatalf("%s: populate: %v", b.Name(), err)
		}
		// One worker: both backends dispatch the ops in order with the
		// identically derived worker-0 RNG.
		res, err := ghba.ApplyParallel(ctx, b, ops, 1)
		if err != nil {
			t.Fatalf("%s: replay: %v", b.Name(), err)
		}
		if err := b.Flush(ctx); err != nil {
			t.Fatalf("%s: flush: %v", b.Name(), err)
		}
		results[i] = res
	}

	// Every operation agrees on home, existence and serving level.
	// (Latency is simulated on one side and wall clock on the other — the
	// one field deliberately outside the contract.)
	diverged := 0
	for i := range ops {
		s, p := results[0][i], results[1][i]
		if s.Home != p.Home || s.Found != p.Found || s.Level != p.Level {
			t.Errorf("op %d (%v %q): sim (home=%d found=%v L%d) vs tcp (home=%d found=%v L%d)",
				i, ops[i].Kind, ops[i].Path, s.Home, s.Found, s.Level, p.Home, p.Found, p.Level)
			if diverged++; diverged > 10 {
				t.Fatal("too many divergences, stopping")
			}
		}
	}

	// The hierarchy served the same number of lookups at every level.
	if sim.LevelCounts() != tcp.LevelCounts() {
		t.Errorf("level tallies diverged:\n  sim %v\n  tcp %v", sim.LevelCounts(), tcp.LevelCounts())
	}

	// Ground truth agrees path by path: same namespace size, and every path
	// the trace touched is homed identically (or absent on both).
	if sim.FileCount() != tcp.FileCount() {
		t.Errorf("file counts diverged: sim %d vs tcp %d", sim.FileCount(), tcp.FileCount())
	}
	for p := range touched {
		if sh, th := sim.HomeOf(p), tcp.HomeOf(p); sh != th {
			t.Errorf("ground truth for %q diverged: sim home %d vs tcp home %d", p, sh, th)
		}
	}

	// Both backends shipped XOR-delta replica updates (the mutation
	// pressure crossed thresholds), and equally often.
	if sim.ReplicaUpdates() == 0 {
		t.Error("replay shipped no replica updates — thresholds never crossed?")
	}
	if sim.ReplicaUpdates() != tcp.ReplicaUpdates() {
		t.Errorf("replica-update counts diverged: sim %d vs tcp %d",
			sim.ReplicaUpdates(), tcp.ReplicaUpdates())
	}
	checkBothInvariants(t, sim, tcp)
}

// checkBothInvariants runs the one checker both backends share: layout,
// replicas bit-equal to their origins' last ship, and the stores holding
// exactly what ground truth homes.
func checkBothInvariants(t *testing.T, sim *ghba.Simulation, tcp *ghba.Prototype) {
	t.Helper()
	if err := sim.CheckInvariants(); err != nil {
		t.Errorf("sim: %v", err)
	}
	if err := tcp.CheckInvariants(); err != nil {
		t.Errorf("tcp: %v", err)
	}
}

// TestCrossBackendReconfigEquivalence extends the contract above across
// membership changes. Both backends execute the plans of one planner
// (internal/group), so from mirrored configurations the same schedule — two
// joins with room, a split, a failover, a join — must leave the same groups
// and the same replica holders after every step and report the same number of
// migrated replicas, and the 300 mixed operations replayed between steps must
// home and find every path identically. Serving levels are compared and
// printed, not asserted: a TCP newcomer boots with an empty L1 array and
// learns only from the observations multicast after it joined, while the
// simulator models L1 as one shared, promptly replicated array.
func TestCrossBackendReconfigEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback TCP replay is not short")
	}
	ctx := context.Background()
	cfg := equivalenceConfig()
	cfg.NumMDS, cfg.MaxGroupSize = 10, 4 // 4+3+3: two joins have room, the third splits
	sim, err := ghba.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := ghba.StartPrototype(ghba.PrototypeConfig{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()

	gen, err := trace.NewGenerator(trace.Config{
		Profile:          trace.MustMixProfile(60, 25, 15),
		TIF:              2,
		FilesPerSubtrace: 400,
		Seed:             11,
	})
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	gen.EachInitialPath(func(p string) bool {
		paths = append(paths, p)
		return true
	})
	if err := sim.CreateAll(ctx, paths); err != nil {
		t.Fatal(err)
	}
	if err := tcp.CreateAll(ctx, paths); err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		id, n int // the new MDS and replicas migrated; or the failed MDS and files lost
		err   error
	}
	add := func(r ghba.Reconfigurer) outcome {
		id, migrated, err := r.AddMDS(ctx)
		return outcome{id, migrated, err}
	}
	fail := func(r ghba.Reconfigurer) outcome {
		lost, err := r.FailMDS(ctx, 2)
		return outcome{2, lost, err}
	}
	steps := []struct {
		name string
		do   func(ghba.Reconfigurer) outcome
	}{{"add (join)", add}, {"add (join)", add}, {"add (split)", add}, {"fail 2", fail}, {"add", add}}

	replay := func(step string) {
		ops := make([]ghba.Op, 300)
		for i := range ops {
			ops[i] = ghba.TraceOp(gen.Next())
			paths = append(paths, ops[i].Path)
		}
		// One worker: both backends dispatch the ops in order with the
		// identically derived worker-0 RNG.
		sres, err := ghba.ApplyParallel(ctx, sim, ops, 1)
		if err != nil {
			t.Fatalf("after %s: sim replay: %v", step, err)
		}
		tres, err := ghba.ApplyParallel(ctx, tcp, ops, 1)
		if err != nil {
			t.Fatalf("after %s: tcp replay: %v", step, err)
		}
		for i := range ops {
			if s, p := sres[i], tres[i]; s.Home != p.Home || s.Found != p.Found {
				t.Fatalf("after %s, op %d (%v %q): sim (home=%d found=%v) vs tcp (home=%d found=%v)",
					step, i, ops[i].Kind, ops[i].Path, s.Home, s.Found, p.Home, p.Found)
			}
		}
	}

	replay("populate")
	groups := len(sim.Layout().Groups())
	for _, step := range steps {
		s, p := step.do(sim), step.do(tcp)
		if s.err != nil || p.err != nil {
			t.Fatalf("%s: sim %v, tcp %v", step.name, s.err, p.err)
		}
		if s != p {
			t.Errorf("%s: sim reports MDS %d and %d, tcp MDS %d and %d", step.name, s.id, s.n, p.id, p.n)
		}
		sl, pl := fmt.Sprint(sim.Layout().Groups()), fmt.Sprint(tcp.Layout().Groups())
		if sl != pl {
			t.Fatalf("%s: layouts diverged:\n  sim %s\n  tcp %s", step.name, sl, pl)
		}
		if was := groups; step.name == "add (split)" && len(sim.Layout().Groups()) != was+1 {
			t.Errorf("%s: %d groups, want %d", step.name, len(sim.Layout().Groups()), was+1)
		}
		groups = len(sim.Layout().Groups())
		replay(step.name)
	}

	// Ground truth agrees path by path, and every path either resolves to it
	// or is gone on both: nothing lost, nothing at a wrong home.
	lost, wrong := 0, 0
	for _, b := range []interface {
		ghba.Backend
		HomeOf(path string) int
	}{sim, tcp} {
		if err := b.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		res, err := ghba.LookupParallel(ctx, b, paths, 1)
		if err != nil {
			t.Fatalf("%s: sweep: %v", b.Name(), err)
		}
		for i, r := range res {
			switch home := b.HomeOf(paths[i]); {
			case home >= 0 && !r.Found:
				lost++
			case r.Found && r.Home != home:
				wrong++
			}
		}
	}
	if lost != 0 || wrong != 0 {
		t.Errorf("closing sweep: %d lost, %d wrong-home", lost, wrong)
	}
	if sim.FileCount() != tcp.FileCount() {
		t.Errorf("file counts diverged: sim %d vs tcp %d", sim.FileCount(), tcp.FileCount())
	}
	for _, p := range paths {
		if sh, th := sim.HomeOf(p), tcp.HomeOf(p); sh != th {
			t.Fatalf("ground truth for %q diverged: sim home %d vs tcp home %d", p, sh, th)
		}
	}
	sl, tl := sim.LevelCounts(), tcp.LevelCounts()
	t.Logf("level tallies (L1..L4): sim %v, tcp %v", sl[1:], tl[1:])
	checkBothInvariants(t, sim, tcp)
}
