// Package ghba is the public facade of this repository: a from-scratch Go
// reproduction of "Scalable and Adaptive Metadata Management in Ultra
// Large-scale File Systems" (Hua, Zhu, Jiang, Feng, Tian — ICDCS 2008), the
// G-HBA scheme.
//
// G-HBA organizes N metadata servers (MDS) into groups of at most M and
// routes metadata lookups through a four-level hierarchy of Bloom-filter
// arrays: a replicated LRU array capturing hot files (L1), a per-server
// segment array of ⌊(N−M′)/M′⌋ replicas (L2), a group multicast (L3) and a
// global multicast (L4). Groups reconfigure with light-weight replica
// migration, splitting and merging.
//
// The facade exposes one client surface — the Backend interface — over two
// implementations of the scheme: New builds a Simulation (the in-process
// engine with simulated costs), StartPrototype boots real TCP daemons on
// loopback (the paper's Section 5 setup). Every driver in this module runs
// against either interchangeably.
package ghba

import (
	"context"
	"fmt"
	"math/rand"

	"ghba/internal/analysis"
	"ghba/internal/core"
	"ghba/internal/mds"
	"ghba/internal/simnet"
	"ghba/internal/trace"
)

// Config describes a G-HBA deployment, for either backend.
type Config struct {
	// NumMDS is the number of metadata servers (the paper's N).
	NumMDS int
	// MaxGroupSize is the maximum servers per group (the paper's M). Zero
	// selects the paper's recommended optimum for NumMDS; 1 is the HBA
	// baseline, where every server mirrors every other.
	MaxGroupSize int
	// ExpectedFilesPerMDS sizes each server's Bloom filter. Zero defaults
	// to 50 000.
	ExpectedFilesPerMDS uint64
	// BitsPerFile is the filter ratio m/n. Zero defaults to 16, the ratio
	// G-HBA's memory savings afford (Section 2.3).
	BitsPerFile float64
	// LRUCapacity is the per-home-MDS generation size of the L1 LRU array.
	// Zero derives it from ExpectedFilesPerMDS (mds.LRUCapacityFor).
	LRUCapacity uint64
	// MemoryBudgetBytes caps each server's replica memory; zero means
	// unlimited. See internal/memmodel for the spill model. Simulation
	// only: StartPrototype rejects a non-zero budget (the TCP backend
	// spills by PrototypeConfig.ResidentReplicaLimit and DiskPenalty).
	MemoryBudgetBytes uint64
	// ShipBatch is the coalescing ship queue's drain batch: the number of
	// XOR-delta threshold crossings absorbed before dirty origins' replicas
	// ship. 0 or 1 ships at every crossing (the paper's protocol); larger
	// values amortize bursts of creates, with Flush draining the remainder.
	ShipBatch int
	// Seed makes runs deterministic.
	Seed int64
}

// ConfigError reports one rejected Config field. Use errors.As to
// distinguish misconfiguration from runtime failures.
type ConfigError struct {
	// Field names the offending Config field; Reason says what about its
	// value was rejected.
	Field, Reason string
}

// Error implements error.
func (e *ConfigError) Error() string {
	return "ghba: invalid config: " + e.Field + ": " + e.Reason
}

// validate rejects configurations that would silently misconfigure the
// filter hierarchy rather than letting them degrade at runtime.
func (c Config) validate() error {
	if c.NumMDS < 1 {
		return &ConfigError{Field: "NumMDS", Reason: fmt.Sprintf("must be ≥ 1, got %d", c.NumMDS)}
	}
	if c.MaxGroupSize < 0 {
		return &ConfigError{Field: "MaxGroupSize", Reason: fmt.Sprintf("must be ≥ 0, got %d", c.MaxGroupSize)}
	}
	if c.BitsPerFile < 0 {
		return &ConfigError{Field: "BitsPerFile", Reason: fmt.Sprintf("must be ≥ 0, got %g", c.BitsPerFile)}
	}
	if c.ShipBatch < 0 {
		return &ConfigError{Field: "ShipBatch", Reason: fmt.Sprintf("must be ≥ 0, got %d", c.ShipBatch)}
	}
	if c.MemoryBudgetBytes > 0 {
		// A budget below one replica's footprint cannot hold even the
		// server's own filter: every array probe would spill, which is
		// never what a caller wants from a "budget".
		files := c.ExpectedFilesPerMDS
		if files == 0 {
			files = defaultFilesPerMDS
		}
		bits := c.BitsPerFile
		if bits == 0 {
			bits = defaultBitsPerFile
		}
		filterBytes := uint64(float64(files)*bits+7) / 8
		if c.MemoryBudgetBytes < filterBytes {
			return &ConfigError{
				Field: "MemoryBudgetBytes",
				Reason: fmt.Sprintf("%d bytes cannot hold one %d-byte filter (ExpectedFilesPerMDS=%d × BitsPerFile=%g)",
					c.MemoryBudgetBytes, filterBytes, files, bits),
			}
		}
	}
	return nil
}

// Facade-level sizing defaults shared by both backends.
const (
	defaultFilesPerMDS = 50_000
	defaultBitsPerFile = 16.0
)

// nodeConfig derives the per-server filter sizing both backends share.
func (c Config) nodeConfig() mds.Config {
	files := c.ExpectedFilesPerMDS
	if files == 0 {
		files = defaultFilesPerMDS
	}
	bits := c.BitsPerFile
	if bits == 0 {
		bits = defaultBitsPerFile
	}
	lruCap := c.LRUCapacity
	if lruCap == 0 {
		lruCap = mds.LRUCapacityFor(files)
	}
	return mds.Config{
		ExpectedFiles:  files,
		BitsPerFile:    bits,
		LRUCapacity:    lruCap,
		LRUBitsPerFile: bits,
	}
}

// groupSize resolves MaxGroupSize, defaulting to the paper's optimum.
func (c Config) groupSize() int {
	if c.MaxGroupSize != 0 {
		return c.MaxGroupSize
	}
	return RecommendedGroupSize(c.NumMDS)
}

// Result reports one lookup or mutation outcome; both backends return the
// engines' own value. ServerTime is the simulator's entry-server busy time
// and stays zero on the Prototype.
type Result = trace.Result

// Simulation is the in-process Backend: the full G-HBA scheme on the
// simulated substrate, with per-operation latency from the cost model.
//
// Lookups are safe to run from many goroutines concurrently (see the
// package-level LookupParallel/ApplyParallel drivers); reconfiguration —
// AddMDS, RemoveMDS, FailMDS — serializes as an exclusive writer against
// in-flight operations.
type Simulation struct {
	cluster *core.Cluster
	seed    int64
}

// New builds a simulation backend from cfg.
func New(cfg Config) (*Simulation, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ccfg := core.DefaultConfig(cfg.NumMDS, cfg.groupSize())
	ccfg.Node = cfg.nodeConfig()
	ccfg.Cost = simnet.DefaultCostModel()
	ccfg.MemoryBudgetBytes = cfg.MemoryBudgetBytes
	ccfg.ShipBatch = cfg.ShipBatch
	ccfg.Seed = cfg.Seed
	cluster, err := core.New(ccfg)
	if err != nil {
		return nil, err
	}
	return SimulationOver(cluster, cfg.Seed), nil
}

// SimulationOver wraps an already-built scheme engine in the Backend
// surface, for drivers that tune core.Config fields Config does not expose
// (the figure drivers' memory accounting and staleness knobs).
// seed is the base of the parallel drivers' per-worker RNG derivation.
func SimulationOver(cluster *core.Cluster, seed int64) *Simulation {
	return &Simulation{cluster: cluster, seed: seed}
}

// RecommendedGroupSize returns the group size the paper recommends for a
// system of n servers (Fig 7; roughly √n over the studied range).
func RecommendedGroupSize(n int) int { return analysis.PaperOptimalM(n) }

// Name identifies the backend in banners and bench records.
func (s *Simulation) Name() string { return "sim" }

// Seed returns the seed the simulation was built with.
func (s *Simulation) Seed() int64 { return s.seed }

// NumMDS returns the current server count.
func (s *Simulation) NumMDS() int { return s.cluster.NumMDS() }

// NumGroups returns the current group count.
func (s *Simulation) NumGroups() int { return s.cluster.NumGroups() }

// FileCount returns the number of files in the namespace.
func (s *Simulation) FileCount() int { return s.cluster.FileCount() }

// CreateAll bulk-loads paths and synchronizes all replicas afterwards —
// much faster than per-file updates for initial population.
func (s *Simulation) CreateAll(_ context.Context, paths []string) error {
	s.cluster.Populate(func(fn func(string) bool) {
		for _, p := range paths {
			if !fn(p) {
				return
			}
		}
	})
	return nil
}

// HomeOf returns path's ground-truth home MDS (-1 when absent).
func (s *Simulation) HomeOf(path string) int { return s.cluster.HomeOf(path) }

// Lookup resolves the home MDS of path, entering the hierarchy at a random
// server drawn from the simulation's internal RNG, as the paper's clients
// do. The context is accepted for interface parity and ignored: the
// simulation never blocks on I/O.
func (s *Simulation) Lookup(_ context.Context, path string) (Result, error) {
	return s.cluster.Lookup(path, -1), nil
}

// LookupWith is Lookup with the entry drawn from the caller's RNG — the
// hook the parallel drivers build their determinism contract on.
func (s *Simulation) LookupWith(_ context.Context, rng *rand.Rand, path string) (Result, error) {
	return s.cluster.LookupWith(rng, path, -1), nil
}

// Apply dispatches one mixed-workload operation with randomness drawn from
// the simulation's internal RNG.
func (s *Simulation) Apply(_ context.Context, op Op) (Result, error) {
	return s.cluster.Apply(op.Record()), nil
}

// ApplyWith is Apply with a caller-supplied RNG: a delete's Result reports
// the pre-delete home and existence, a create reports the chosen home with
// Level 0, and a create of an existing path degenerates to a lookup entered
// at the drawn server.
func (s *Simulation) ApplyWith(_ context.Context, rng *rand.Rand, op Op) (Result, error) {
	return s.cluster.ApplyWith(rng, op.Record()), nil
}

// ApplyBatch dispatches ops serially with rng. The simulation has no wire
// rounds to amortize, so its batch path is exactly the serial loop — which
// keeps the cross-backend determinism contract trivially intact.
func (s *Simulation) ApplyBatch(_ context.Context, rng *rand.Rand, ops []Op) ([]Result, error) {
	out := make([]Result, len(ops))
	for i, op := range ops {
		out[i] = s.cluster.ApplyWith(rng, op.Record())
	}
	return out, nil
}

// Flush drains the coalescing ship queue: every server whose filter
// crossed the update threshold since the last drain ships its replicas now.
// A no-op with the default ShipBatch of 1.
func (s *Simulation) Flush(_ context.Context) error {
	s.cluster.Flush()
	return nil
}

// Close implements Backend; the simulation holds no external resources.
func (s *Simulation) Close() error { return nil }

// AddMDS grows the cluster by one server (joining a group with room or
// splitting a full one) and returns the new server's ID along with the
// number of Bloom-filter replicas migrated.
func (s *Simulation) AddMDS(_ context.Context) (id, replicasMigrated int, err error) {
	id, rep, err := s.cluster.AddMDS()
	return id, rep.ReplicasMigrated, err
}

// RemoveMDS retires a server gracefully: its replicas migrate to
// groupmates, its files re-home across survivors, and shrunken groups
// merge.
func (s *Simulation) RemoveMDS(_ context.Context, id int) error {
	_, err := s.cluster.RemoveMDS(id)
	return err
}

// FailMDS simulates a crash (Section 4.5): nothing migrates off the dead
// server — its group re-fetches the lost filter replicas from their
// origins, its own filters are scrubbed everywhere, and the files it homed
// become unavailable until recreated. Returns how many files were lost.
func (s *Simulation) FailMDS(_ context.Context, id int) (filesLost int, err error) {
	rep, err := s.cluster.FailMDS(id)
	return rep.FilesLost, err
}

// MDSIDs returns the current server IDs in ascending order.
func (s *Simulation) MDSIDs() []int { return s.cluster.MDSIDs() }

// LevelFractions returns the share of lookups served at each level
// (indices 1–4; index 0 unused), the statistic behind Fig 13.
func (s *Simulation) LevelFractions() [5]float64 {
	var out [5]float64
	for l := 1; l <= 4; l++ {
		out[l] = s.cluster.Tally().Fraction(l)
	}
	return out
}

// LevelCounts returns the cumulative number of lookups served at each level
// (indices 1–4; index 0 unused). Drivers that interleave warmup and measured
// phases difference two snapshots to attribute hits to one phase.
func (s *Simulation) LevelCounts() [5]uint64 { return s.cluster.Tally().Counts() }

// ReplicaUpdates returns the number of replica-update messages the
// XOR-delta ship path has sent: one per holder the group layout names, the
// unit Prototype.ReplicaUpdates counts too.
func (s *Simulation) ReplicaUpdates() uint64 {
	return s.cluster.Messages().Get(simnet.MsgReplicaUpdate)
}

// CheckInvariants verifies the global-mirror-image invariant across all
// groups and that the servers' stores hold exactly the files ground truth
// homes; nil means every group independently covers the whole system and no
// file sits in a store its home entry does not name.
func (s *Simulation) CheckInvariants() error { return s.cluster.CheckInvariants() }

// TraceOp converts a trace operation type to the facade's Op kind; replay
// drivers use it to feed generator records through a Backend.
func TraceOp(rec trace.Record) Op {
	op := Op{Path: rec.Path, At: rec.At}
	switch rec.Op {
	case trace.OpCreate:
		op.Kind = OpCreate
	case trace.OpDelete:
		op.Kind = OpDelete
	default:
		op.Kind = OpLookup
	}
	return op
}
