package ghba

import (
	"context"
	"math/rand"
	"time"

	"ghba/internal/proto"
	"ghba/internal/trace"
	"ghba/internal/wal"
)

// PrototypeConfig describes a TCP-backed deployment: the shared Config plus
// the knobs only the networked prototype has.
type PrototypeConfig struct {
	Config

	// DiskPenalty is the wall-clock price of probing a fully spilled segment
	// array (Config.MemoryBudgetBytes); a probe pays it times the share.
	DiskPenalty time.Duration
	// CallTimeout is the per-RPC deadline. Zero selects the library
	// default; negative disables deadlines entirely. Per-call contexts
	// tighten (never loosen) this bound.
	CallTimeout time.Duration
	// DataDir, when non-empty, makes every daemon durable: MDS i
	// write-ahead logs its mutations under DataDir/mds-<i> and compacts
	// the log into snapshots, enabling KillMDS/RestartMDS crash-recovery
	// cycles. Empty keeps daemons memory-only, as before.
	DataDir string
	// WALSync selects the daemons' fsync policy: "always" (default) or
	// "never". Only meaningful with DataDir.
	WALSync string
}

// validate is Config.validate plus the prototype-only fields, so a bad fsync
// policy is a *ConfigError like every other rejected field instead of an
// untyped error from the layer below.
func (c PrototypeConfig) validate() error {
	if err := c.Config.validate(); err != nil {
		return err
	}
	if _, err := wal.ParseSyncPolicy(c.WALSync); err != nil {
		return &ConfigError{Field: "WALSync", Reason: err.Error()}
	}
	return nil
}

// Prototype is the TCP Backend: N real MDS daemons on loopback ports (the
// paper's Section 5 prototype), driven by a concurrent coordinator over
// pooled connections. Lookups, creates and deletes are genuine socket
// traffic; latencies include the real network stack.
type Prototype struct {
	cluster *proto.Cluster
	seed    int64
}

// StartPrototype boots a TCP cluster from cfg. Callers must Close it.
func StartPrototype(cfg PrototypeConfig) (*Prototype, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cluster, err := proto.Start(proto.Options{
		N:                 cfg.NumMDS,
		M:                 cfg.groupSize(),
		Node:              cfg.nodeConfig(),
		MemoryBudgetBytes: cfg.MemoryBudgetBytes,
		DiskPenalty:       cfg.DiskPenalty,
		Seed:              cfg.Seed,
		CallTimeout:       cfg.CallTimeout,
		ShipBatch:         cfg.ShipBatch,
		DataDir:           cfg.DataDir,
		WALSync:           cfg.WALSync,
	})
	if err != nil {
		return nil, err
	}
	return &Prototype{cluster: cluster, seed: cfg.Seed}, nil
}

// Name identifies the backend in banners and bench records.
func (p *Prototype) Name() string { return "tcp" }

// Seed returns the seed the prototype was built with.
func (p *Prototype) Seed() int64 { return p.seed }

// NumMDS returns the current daemon count.
func (p *Prototype) NumMDS() int { return p.cluster.NumMDS() }

// MDSIDs returns the current daemon IDs in ascending order.
func (p *Prototype) MDSIDs() []int { return p.cluster.MDSIDs() }

// FileCount returns the number of files in the namespace.
func (p *Prototype) FileCount() int { return p.cluster.FileCount() }

// HomeOf returns path's ground-truth home MDS (-1 when absent).
func (p *Prototype) HomeOf(path string) int { return p.cluster.HomeOf(path) }

// CheckInvariants verifies, on the daemons themselves, the contract
// Simulation.CheckInvariants checks in process: the group layout is sound,
// every replica array holds what the layout records, bit for bit what its
// origin last shipped, and the daemons' stores hold exactly the files the
// coordinator's ground truth homes. Exact at a quiescent point: a mutation
// round still in flight fails it.
func (p *Prototype) CheckInvariants() error { return p.cluster.CheckInvariants() }

// Cluster exposes the underlying prototype coordinator for callers that
// need its extra observability (RPC message counters, reset hooks).
func (p *Prototype) Cluster() *proto.Cluster { return p.cluster }

// LookupWith resolves path over real RPCs, entering at a daemon drawn from
// the caller's RNG.
func (p *Prototype) LookupWith(ctx context.Context, rng *rand.Rand, path string) (Result, error) {
	return p.cluster.LookupWith(ctx, rng, path)
}

// ApplyWith dispatches one mixed-workload operation over the wire with the
// caller's RNG: creates home files at drawn daemons (shipping XOR-delta
// replica updates when the home's filter crosses the threshold), deletes
// unlink, lookups walk the hierarchy. The draw pattern matches the
// simulation's exactly, so a fixed-seed trace replays onto identical homes
// on either backend.
func (p *Prototype) ApplyWith(ctx context.Context, rng *rand.Rand, op Op) (Result, error) {
	return p.cluster.ApplyWith(ctx, rng, op.Record())
}

// ApplyBatch dispatches a vector of operations through the batch RPCs: one
// frame carries many paths, so syscalls, frame headers and digest work
// amortize across the vector. The RNG draw pattern matches a serial
// ApplyWith loop over the same ops, so fixed-seed runs home every file
// identically on either path.
func (p *Prototype) ApplyBatch(ctx context.Context, rng *rand.Rand, ops []Op) ([]Result, error) {
	recs := make([]trace.Record, len(ops))
	for i, op := range ops {
		recs[i] = op.Record()
	}
	return p.cluster.ApplyBatch(ctx, rng, recs)
}

// CreateAll bulk-loads paths directly into the daemons (unmeasured) and
// refreshes every replica, like the simulation's populate path.
func (p *Prototype) CreateAll(_ context.Context, paths []string) error {
	return p.cluster.Populate(paths)
}

// Flush drains the coalescing ship queue over the wire.
func (p *Prototype) Flush(ctx context.Context) error { return p.cluster.Flush(ctx) }

// LevelCounts returns the cumulative lookups served at each level.
func (p *Prototype) LevelCounts() [5]uint64 { return p.cluster.LevelCounts() }

// ReplicaUpdates returns the replica-install messages the XOR-delta ship
// path has sent.
func (p *Prototype) ReplicaUpdates() uint64 { return p.cluster.ReplicaUpdates() }

// Close shuts down every daemon and connection.
func (p *Prototype) Close() error {
	p.cluster.Close()
	return nil
}

// AddMDS boots one new daemon and reconfigures the running cluster over
// real RPCs, returning the new ID and the number of Bloom-filter replicas
// the join migrated — the same number, from the same plan, the simulation
// reports for the same join.
func (p *Prototype) AddMDS(ctx context.Context) (id, replicasMigrated int, err error) {
	id, rep, err := p.cluster.AddMDS(ctx)
	return id, rep.ReplicasMigrated, err
}

// RemoveMDS is not yet implemented by the TCP prototype: the leaver's
// replicas would move by group.Layout.Leave's plan like any other, but
// re-homing its files over RPC is not written.
func (p *Prototype) RemoveMDS(context.Context, int) error { return ErrUnsupported }

// FailMDS removes daemon id as if it had crashed: the daemon is killed,
// survivors repair their replica placement over real RPCs, and the files it
// homed leave the namespace. Returns how many files were lost. The cluster's
// heartbeat detector (StartDetector) invokes the same path automatically on
// a daemon that misses four heartbeat rounds in a row.
func (p *Prototype) FailMDS(ctx context.Context, id int) (int, error) {
	rep, err := p.cluster.FailMDS(ctx, id)
	return rep.FilesLost, err
}

// KillMDS crashes daemon id in place — connections drop, the WAL is
// abandoned mid-stream, membership still names it — the client-visible
// shape of a kill -9. Recover it with RestartMDS, or let a running failure
// detector declare it dead and fail it over.
func (p *Prototype) KillMDS(id int) error { return p.cluster.KillMDS(id) }

// RestartMDS recovers daemon id from its WAL directory (requires DataDir)
// and returns the recovery report: a daemon killed in place restarts within
// its membership slot; one that was failed over rejoins and re-claims the
// files its log preserved.
func (p *Prototype) RestartMDS(ctx context.Context, id int) (proto.RestartReport, error) {
	return p.cluster.RestartMDS(ctx, id)
}

// StartDetector launches the heartbeat failure detector: a round to every
// daemon every 15 ms, and FailMDS on a daemon that misses four rounds in a
// row. Callers must Stop it before Close.
func (p *Prototype) StartDetector() *proto.Detector {
	return p.cluster.StartDetector()
}
