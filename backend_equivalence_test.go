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

// TestCrossBackendEquivalenceBlocked replays the same contract with
// cache-line-blocked filters on both transports. Beyond re-proving protocol
// agreement under the alternate probe schedule, it exercises the blocked
// wire geometry tag end to end: every replica ship and snapshot crossing the
// TCP boundary marshals with the blocked magic and must decode to the same
// filter the simulation holds in memory.
func TestCrossBackendEquivalenceBlocked(t *testing.T) {
	cfg := equivalenceConfig()
	cfg.BlockedFilters = true
	runCrossBackendEquivalence(t, cfg)
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
	tcp, err := ghba.StartPrototype(ghba.PrototypeConfig{
		Config: cfg,
		// The simulation learns L1 observations at every found lookup; batch
		// size 1 makes the daemons' replicated LRU arrays follow the same
		// per-lookup schedule.
		ObserveBatch: 1,
	})
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
}
