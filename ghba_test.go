package ghba

import (
	"context"
	"errors"
	"strconv"
	"testing"
	"time"

	"ghba/internal/mds"
)

func newSim(t *testing.T, n int) *Simulation {
	t.Helper()
	s, err := New(Config{NumMDS: n, ExpectedFilesPerMDS: 1_000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// lk resolves one path, failing the test on error.
func lk(t *testing.T, s *Simulation, path string) Result {
	t.Helper()
	res, err := s.Lookup(context.Background(), path)
	if err != nil {
		t.Fatalf("lookup %s: %v", path, err)
	}
	return res
}

// ap applies one operation, failing the test on error.
func ap(t *testing.T, s *Simulation, op Op) Result {
	t.Helper()
	res, err := s.Apply(context.Background(), op)
	if err != nil {
		t.Fatalf("apply %+v: %v", op, err)
	}
	return res
}

func createAll(t *testing.T, s *Simulation, paths []string) {
	t.Helper()
	if err := s.CreateAll(context.Background(), paths); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		field string
	}{
		{"zero MDS", Config{NumMDS: 0}, "NumMDS"},
		{"negative MDS", Config{NumMDS: -3}, "NumMDS"},
		{"negative group size", Config{NumMDS: 4, MaxGroupSize: -1}, "MaxGroupSize"},
		{"negative bits per file", Config{NumMDS: 4, BitsPerFile: -2}, "BitsPerFile"},
		{"negative ship batch", Config{NumMDS: 4, ShipBatch: -1}, "ShipBatch"},
		// 1 KiB cannot hold even one filter at the default sizing
		// (50 000 files × 16 bits = 100 000 bytes).
		{"budget below one filter", Config{NumMDS: 4, MemoryBudgetBytes: 1 << 10}, "MemoryBudgetBytes"},
		{"budget below explicit filter", Config{NumMDS: 4, ExpectedFilesPerMDS: 10_000, BitsPerFile: 8, MemoryBudgetBytes: 100}, "MemoryBudgetBytes"},
	}
	for _, tc := range cases {
		_, err := New(tc.cfg)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		var cerr *ConfigError
		if !errors.As(err, &cerr) {
			t.Errorf("%s: error %v is not a *ConfigError", tc.name, err)
			continue
		}
		if cerr.Field != tc.field {
			t.Errorf("%s: rejected field %q, want %q", tc.name, cerr.Field, tc.field)
		}
	}
	// The same validation guards the TCP backend's shared Config half.
	if _, err := StartPrototype(PrototypeConfig{Config: Config{NumMDS: 2, ShipBatch: -5}}); err == nil {
		t.Error("StartPrototype accepted negative ShipBatch")
	}
	// A budget that fits at least one filter is accepted.
	if _, err := New(Config{NumMDS: 2, ExpectedFilesPerMDS: 1_000, MemoryBudgetBytes: 1 << 20}); err != nil {
		t.Errorf("valid budget rejected: %v", err)
	}
}

// TestStartPrototypeValidation is TestNewValidation for the fields only the
// TCP backend has: each is rejected as a *ConfigError naming it, before any
// daemon starts.
func TestStartPrototypeValidation(t *testing.T) {
	base := Config{NumMDS: 2, ExpectedFilesPerMDS: 1_000}
	cases := []struct {
		name  string
		cfg   PrototypeConfig
		field string
	}{
		{"shared half", PrototypeConfig{Config: Config{NumMDS: 0}}, "NumMDS"},
		{"unknown WAL sync policy", PrototypeConfig{Config: base, WALSync: "sometimes"}, "WALSync"},
		// The simulator's spill model; TCP's is ResidentReplicaLimit/DiskPenalty.
		{"memory budget", PrototypeConfig{Config: Config{NumMDS: 2, ExpectedFilesPerMDS: 1_000, MemoryBudgetBytes: 1 << 20}}, "MemoryBudgetBytes"},
	}
	for _, tc := range cases {
		p, err := StartPrototype(tc.cfg)
		if err == nil {
			p.Close()
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		var cerr *ConfigError
		if !errors.As(err, &cerr) {
			t.Errorf("%s: error %v is not a *ConfigError", tc.name, err)
			continue
		}
		if cerr.Field != tc.field {
			t.Errorf("%s: rejected field %q, want %q", tc.name, cerr.Field, tc.field)
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	s := newSim(t, 12)
	if s.NumMDS() != 12 {
		t.Errorf("NumMDS = %d", s.NumMDS())
	}
	// M defaults to the recommendation (3 groups of 4 at N=12, M=6 → 2 groups).
	if s.NumGroups() != 2 {
		t.Errorf("NumGroups = %d, want 2 (M=6)", s.NumGroups())
	}
	if s.Name() != "sim" || s.Seed() != 7 {
		t.Errorf("backend identity wrong: %s/%d", s.Name(), s.Seed())
	}
}

func TestRecommendedGroupSize(t *testing.T) {
	cases := map[int]int{5: 3, 30: 6, 60: 7, 100: 9, 200: 13}
	for n, want := range cases {
		if got := RecommendedGroupSize(n); got != want {
			t.Errorf("RecommendedGroupSize(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestLifecycle(t *testing.T) {
	s := newSim(t, 8)
	paths := make([]string, 300)
	for i := range paths {
		paths[i] = "/app/data/f" + strconv.Itoa(i)
	}
	createAll(t, s, paths)
	if s.FileCount() != 300 {
		t.Fatalf("FileCount = %d", s.FileCount())
	}
	var total time.Duration
	for _, p := range paths {
		res := lk(t, s, p)
		if !res.Found {
			t.Fatalf("lookup %s failed", p)
		}
		if res.Level < 1 || res.Level > 4 || res.Latency <= 0 {
			t.Fatalf("implausible result %+v", res)
		}
		total += res.Latency
	}
	if s.HomeOf(paths[0]) < 0 || s.HomeOf("/nope") >= 0 {
		t.Error("Exists wrong")
	}
	if del := (Op{Kind: OpDelete, Path: paths[0]}); !ap(t, s, del).Found || ap(t, s, del).Found {
		t.Error("Delete semantics wrong")
	}
	if res := lk(t, s, "/nope"); res.Found || res.Home != -1 {
		t.Error("missing file found")
	}
	if total/time.Duration(len(paths)) <= 0 {
		t.Error("no latency recorded")
	}
	fr := s.LevelFractions()
	sum := fr[1] + fr[2] + fr[3] + fr[4]
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("level fractions sum %f", sum)
	}
}

// TestNodeConfigForBenchmarkWorkloads pins the per-server sizing the facade
// derives for the five bench/ workloads' configs (bench/workloads.go): the L1
// rule now lives in mds.LRUCapacityFor, and moving it must not move them.
func TestNodeConfigForBenchmarkWorkloads(t *testing.T) {
	sim := Config{NumMDS: 30, ExpectedFilesPerMDS: 8_000, LRUCapacity: 256, Seed: 1}
	simMixed := sim
	simMixed.ShipBatch = 64
	tcp := Config{NumMDS: 12, MaxGroupSize: 6, ExpectedFilesPerMDS: 16_000, LRUCapacity: 256, ShipBatch: 64, Seed: 1}
	for _, tc := range []struct {
		name string
		cfg  Config
		want mds.Config
	}{
		{"sim_lookup_uniform", sim, mds.Config{ExpectedFiles: 8_000, BitsPerFile: 16, LRUCapacity: 256, LRUBitsPerFile: 16}},
		{"sim_lookup_zipf", sim, mds.Config{ExpectedFiles: 8_000, BitsPerFile: 16, LRUCapacity: 256, LRUBitsPerFile: 16}},
		{"sim_mixed", simMixed, mds.Config{ExpectedFiles: 8_000, BitsPerFile: 16, LRUCapacity: 256, LRUBitsPerFile: 16}},
		{"tcp_mixed_perop", tcp, mds.Config{ExpectedFiles: 16_000, BitsPerFile: 16, LRUCapacity: 256, LRUBitsPerFile: 16}},
		{"tcp_mixed_batch", tcp, mds.Config{ExpectedFiles: 16_000, BitsPerFile: 16, LRUCapacity: 256, LRUBitsPerFile: 16}},
	} {
		if got := tc.cfg.nodeConfig(); got != tc.want {
			t.Errorf("%s: nodeConfig = %+v, want %+v", tc.name, got, tc.want)
		}
		// With LRUCapacity left to the rule, the same configs derive files/16.
		derived := tc.cfg
		derived.LRUCapacity = 0
		if got, want := derived.nodeConfig().LRUCapacity, tc.cfg.ExpectedFilesPerMDS/16; got != want {
			t.Errorf("%s: derived LRUCapacity = %d, want %d", tc.name, got, want)
		}
	}
	// The floor and the defaults, as before the hoist.
	if got := (Config{NumMDS: 4, ExpectedFilesPerMDS: 100}).nodeConfig().LRUCapacity; got != 64 {
		t.Errorf("floor: LRUCapacity = %d, want 64", got)
	}
	if got := (Config{NumMDS: 4}).nodeConfig(); got != (mds.Config{ExpectedFiles: 50_000, BitsPerFile: 16, LRUCapacity: 3_125, LRUBitsPerFile: 16}) {
		t.Errorf("defaults: nodeConfig = %+v", got)
	}
}

func TestCreateSingle(t *testing.T) {
	s := newSim(t, 4)
	home := ap(t, s, Op{Kind: OpCreate, Path: "/one"}).Home
	if home < 0 || s.HomeOf("/one") < 0 {
		t.Error("Create failed")
	}
	res := lk(t, s, "/one")
	if !res.Found || res.Home != home {
		t.Errorf("lookup after create = %+v", res)
	}
}

func TestScaleUpAndDown(t *testing.T) {
	ctx := context.Background()
	s := newSim(t, 6)
	paths := make([]string, 200)
	for i := range paths {
		paths[i] = "/scale/f" + strconv.Itoa(i)
	}
	createAll(t, s, paths)

	id, migrated, err := s.AddMDS(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if migrated <= 0 {
		t.Error("no replicas migrated on join")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("invariants after add: %v", err)
	}
	if err := s.RemoveMDS(ctx, id); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("invariants after remove: %v", err)
	}
	if err := s.RemoveMDS(ctx, 999); err == nil {
		t.Error("removing unknown MDS succeeded")
	}
	for _, p := range paths {
		if !lk(t, s, p).Found {
			t.Fatalf("lost %s after reconfiguration", p)
		}
	}
	if len(s.MDSIDs()) != s.NumMDS() {
		t.Error("MDSIDs inconsistent")
	}
}

func TestFailMDSFacade(t *testing.T) {
	ctx := context.Background()
	s := newSim(t, 6)
	paths := make([]string, 120)
	for i := range paths {
		paths[i] = "/crash/f" + strconv.Itoa(i)
	}
	createAll(t, s, paths)
	victim := s.MDSIDs()[0]
	lost, err := s.FailMDS(ctx, victim)
	if err != nil {
		t.Fatal(err)
	}
	if lost <= 0 {
		t.Error("crash lost no files despite random placement")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("invariants after crash: %v", err)
	}
	available := 0
	for _, p := range paths {
		if lk(t, s, p).Found {
			available++
		}
	}
	if available != len(paths)-lost {
		t.Errorf("available = %d, want %d", available, len(paths)-lost)
	}
	if _, err := s.FailMDS(ctx, victim); err == nil {
		t.Error("double failure of same MDS succeeded")
	}
}
