package ghba

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"time"

	"ghba/internal/trace"
)

// ErrUnsupported is returned by Reconfigurer operations a backend cannot
// perform (the TCP prototype, for instance, grows but does not yet shrink).
var ErrUnsupported = errors.New("ghba: operation not supported by this backend")

// Backend is the transport-agnostic client surface over a G-HBA metadata
// cluster. Two implementations ship with the repository: Simulation (the
// in-process engine with simulated costs) and Prototype (real TCP daemons
// on loopback, the paper's Section 5 setup). Every driver in this module —
// the replay engines, the benches, the CLIs, the examples — dispatches
// against this interface, so any mixed-workload scenario runs unchanged
// against either backend.
//
// Contexts carry per-call deadlines and cancellation; the simulation
// ignores them (it never blocks on I/O), the prototype threads them down to
// every RPC. Every draw of an entry point or a new file's home comes from the
// caller's RNG; lookups and applies are safe for concurrent use, each caller
// with its own RNG, and backends serialize reconfiguration internally as an
// exclusive writer.
type Backend interface {
	// Name identifies the backend ("sim", "tcp") in banners and records.
	Name() string
	// Seed returns the seed the backend was built with. LookupParallel and
	// ApplyParallel pass it to Drive as the base of their per-worker RNGs;
	// the trace replays pass the trace's seed instead.
	Seed() int64
	// NumMDS returns the current server count.
	NumMDS() int
	// MDSIDs returns the current server IDs in ascending order.
	MDSIDs() []int
	// FileCount returns the number of files in the namespace (ground truth).
	FileCount() int
	// LookupWith resolves the home MDS of path, entering the hierarchy at
	// a server drawn from the caller's RNG — the paper's "each request can
	// randomly choose an MDS", and the reproducible-concurrency hook every
	// parallel driver builds on.
	LookupWith(ctx context.Context, rng *rand.Rand, path string) (Result, error)
	// ApplyWith dispatches one mixed-workload operation with the caller's
	// RNG: creates home new files, deletes unlink, lookups walk the query
	// hierarchy.
	ApplyWith(ctx context.Context, rng *rand.Rand, op Op) (Result, error)
	// CreateAll bulk-loads paths and synchronizes all replicas afterwards —
	// much faster than per-file updates for initial population.
	CreateAll(ctx context.Context, paths []string) error
	// Flush drains the coalescing ship queue at a quiescent point.
	Flush(ctx context.Context) error
	// LevelCounts returns the cumulative lookups served at each hierarchy
	// level (indices 1–4; index 0 unused).
	LevelCounts() [5]uint64
	// Close releases the backend's resources (daemons, sockets). The
	// simulation's Close is a no-op.
	Close() error
}

// BatchApplier is the optional batch half of the backend contract: a
// backend that dispatches a whole vector of operations per call, letting a
// networked transport amortize syscalls, frame headers and digest work
// across the vector. Both shipped backends implement it — the simulation as
// a serial loop (it has no wire rounds to amortize), the prototype through
// the batch RPCs (ApplyBatch in internal/proto). Lookups ride it as OpLookup
// ops.
type BatchApplier interface {
	// ApplyBatch dispatches ops as one batch with the caller's RNG,
	// returning per-op results in input order. The RNG draw pattern matches
	// a serial ApplyWith loop over the same ops — one draw per create or
	// lookup, none per delete — so fixed-seed runs home every file
	// identically whichever path dispatches them.
	ApplyBatch(ctx context.Context, rng *rand.Rand, ops []Op) ([]Result, error)
}

// Reconfigurer is the dynamic-membership half of the backend contract.
// Simulation supports all three operations; Prototype supports AddMDS and
// FailMDS (plus crash/recover cycles via its own KillMDS/RestartMDS) and
// returns ErrUnsupported for graceful RemoveMDS.
type Reconfigurer interface {
	// AddMDS grows the cluster by one server, returning the new ID and the
	// number of Bloom-filter replicas migrated. Both backends execute the
	// plan of one planner (internal/group), so from equal layouts they
	// report the same number.
	AddMDS(ctx context.Context) (id, replicasMigrated int, err error)
	// RemoveMDS retires a server gracefully.
	RemoveMDS(ctx context.Context, id int) error
	// FailMDS simulates a crash, returning how many files were lost.
	FailMDS(ctx context.Context, id int) (filesLost int, err error)
}

// OpKind identifies one ApplyWith operation.
type OpKind uint8

// Operation kinds for ApplyWith and ApplyBatch.
const (
	// OpLookup resolves a path through the query hierarchy.
	OpLookup OpKind = iota
	// OpCreate homes a new file (an existing path degenerates to a lookup).
	OpCreate
	// OpDelete unlinks a file.
	OpDelete
)

// Op is one operation of a mixed workload.
type Op struct {
	Kind OpKind
	Path string
	// At is the arrival-time offset driving the simulation's open-loop
	// queue model; the prototype (real sockets, real queueing) ignores it.
	At time.Duration
}

// Record converts a facade Op to the trace record the engines dispatch — the
// inverse of TraceOp.
func (op Op) Record() trace.Record {
	rec := trace.Record{Path: op.Path, At: op.At}
	switch op.Kind {
	case OpCreate:
		rec.Op = trace.OpCreate
	case OpDelete:
		rec.Op = trace.OpDelete
	default:
		rec.Op = trace.OpStat
	}
	return rec
}

// LookupParallel resolves every path against the backend using the given
// number of worker goroutines and returns the results in path order. The
// paths are cut into contiguous chunks, one per worker, and Drive runs
// them, so runs are deterministic for a fixed (backend seed, paths,
// workers) triple and a single-worker run is exactly the serial engine
// driven by worker 0's RNG. workers < 1 selects GOMAXPROCS. A worker's
// first error stops its chunk; other workers finish theirs, and all errors
// are joined.
func LookupParallel(ctx context.Context, b Backend, paths []string, workers int) ([]Result, error) {
	return driveChunks(ctx, b, len(paths), workers, Shape{Lookup: true}, func(i int) Op {
		return Op{Kind: OpLookup, Path: paths[i]}
	})
}

// ApplyParallel dispatches a mixed create/delete/lookup workload across the
// given number of worker goroutines and returns the results in input order.
// The determinism contract matches LookupParallel's: runs are reproducible
// for a fixed (backend seed, ops, workers) triple up to the interleaving of
// workers on shared cluster state, and a single-worker run is exactly the
// serial engine driven by worker 0's RNG.
//
// A delete's Result reports the pre-delete home and whether the path
// existed; a create reports the chosen home with Level 0. Replica shipping
// is coalesced per the backend's ShipBatch — call Flush to force pending
// updates out at a quiescent point.
func ApplyParallel(ctx context.Context, b Backend, ops []Op, workers int) ([]Result, error) {
	return driveChunks(ctx, b, len(ops), workers, Shape{}, func(i int) Op { return ops[i] })
}

// driveChunks cuts n ops into at most workers contiguous lanes of
// ⌈n/workers⌉ (worker 0's starting at op 0), drives them from b's seed and
// returns the results in input order.
func driveChunks(ctx context.Context, b Backend, n, workers int, shape Shape, op func(i int) Op) ([]Result, error) {
	if n == 0 {
		return nil, nil
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	chunk := (n + workers - 1) / workers
	lanes := make([]Lane, (n+chunk-1)/chunk)
	for w := range lanes {
		lo := w * chunk
		lanes[w] = Lane{Len: min(chunk, n-lo), Op: func(i int) Op { return op(lo + i) }}
	}
	results := make([]Result, n)
	err := Drive(ctx, b, b.Seed(), lanes, shape, func(w, at int, _ []Op, res []Result, err error) error {
		copy(results[w*chunk+at:], res)
		return err
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// Interface conformance is pinned at compile time.
var (
	_ Backend      = (*Simulation)(nil)
	_ Backend      = (*Prototype)(nil)
	_ Reconfigurer = (*Simulation)(nil)
	_ Reconfigurer = (*Prototype)(nil)
	_ BatchApplier = (*Simulation)(nil)
	_ BatchApplier = (*Prototype)(nil)
)
