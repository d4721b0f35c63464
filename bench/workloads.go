package main

import (
	"fmt"
	"math/rand"
	"time"

	"ghba"
	"ghba/internal/trace"
)

// streamKind selects how a workload draws its operations.
type streamKind int

const (
	// streamUniform looks up paths uniformly over the whole namespace.
	streamUniform streamKind = iota
	// streamZipf looks up paths Zipf-distributed over a seeded permutation
	// of the namespace, so the hot set is a random subset of it.
	streamZipf
	// streamMixed replays the 70:15:15 lookup:create:delete generator.
	streamMixed
)

// Shared shape of every workload: a closed loop of loadWorkers goroutines,
// a namespace of traceTIF disjoint sub-traces, and the mixed generator's
// operation ratio. 15:15 rather than the legacy 70:20:10 because the
// namespace must be stationary: at 20:10 it grows by 10% of the operations,
// the filters saturate and the level shares drift for the whole run.
const (
	loadWorkers  = 2
	traceTIF     = 4
	mixLookup    = 70
	mixCreate    = 15
	mixDelete    = 15
	zipfExponent = 1.1
	clusterSeed  = 1
	// batchVector is the ApplyBatch vector length of tcp_mixed_batch and of
	// the traced run's batched proto pass.
	batchVector = 256
)

// workload is one named set of inputs: a cluster shape, a namespace, an
// operation stream and the way the stream is dispatched.
type workload struct {
	Name string
	Why  string
	// TCP runs the workload against ghba.StartPrototype (real sockets and
	// a WAL on disk); otherwise against ghba.New.
	TCP bool
	// NumMDS, GroupSize, FilesPerMDS, LRUCapacity and ShipBatch fill the
	// ghba.Config; zero values take the facade's defaults.
	NumMDS      int
	GroupSize   int
	FilesPerMDS uint64
	LRUCapacity uint64
	ShipBatch   int
	// Files is the initial namespace size (traceTIF equal sub-traces).
	Files  int
	Stream streamKind
	// RoundOps is the fixed operation count of one timed round, WarmOps
	// that of the discarded warm-up before the first one.
	RoundOps int
	WarmOps  int
	// Vector is the ApplyBatch vector length; zero dispatches one op per
	// call.
	Vector int
	// SampleEvery is the stride of timed calls: every SampleEvery-th
	// dispatch call of a worker is wrapped in time.Now (a power of two).
	// The simulator's 2 µs operations are sampled sparsely so timing does
	// not perturb them; every TCP call is timed.
	SampleEvery int
}

// workloads is the benchmark's fixed set, in BENCHMARK.json order.
var workloads = []workload{
	{
		Name:   "sim_lookup_uniform",
		Why:    "Uniform lookups over 120k paths, far beyond L1 capacity: nearly every lookup scans L1 in vain, then pays the L2 array scan and the L3 group fan-out (bloom, bloomarray, mds.QueryL2Digest, core).",
		NumMDS: 30, FilesPerMDS: 8_000, LRUCapacity: 256,
		Files: 120_000, Stream: streamUniform,
		RoundOps: 1_000_000, WarmOps: 300_000, SampleEvery: 64,
	},
	{
		Name:   "sim_lookup_zipf",
		Why:    "Zipf(1.1) lookups whose hot set fits L1 (about 82% L1 hits): LRUArray query/observe plus one verify dominate. L2/L3/filter changes should not move it; L1 changes should not move sim_lookup_uniform.",
		NumMDS: 30, FilesPerMDS: 8_000, LRUCapacity: 256,
		Files: 120_000, Stream: streamZipf,
		RoundOps: 1_500_000, WarmOps: 450_000, SampleEvery: 64,
	},
	{
		Name:   "sim_mixed",
		Why:    "70:15:15 lookup:create:delete on the simulator: mds.AddFile/DeleteFile, copy-on-write bloomarray, shipq and XOR-delta ships run beside the reads, so a read-path gain that taxes mutation shows.",
		NumMDS: 30, FilesPerMDS: 8_000, LRUCapacity: 256, ShipBatch: 64,
		Files: 120_000, Stream: streamMixed,
		RoundOps: 1_000_000, WarmOps: 300_000, SampleEvery: 64,
	},
	{
		Name: "tcp_mixed_perop",
		Why:  "Same mix over loopback TCP daemons with an fsync-always WAL, one call per op (about 5 RPCs per op): rpcnet framing, syscalls and wal fsync dominate; filter work is noise.",
		TCP:  true, NumMDS: 12, GroupSize: 6, FilesPerMDS: 16_000, LRUCapacity: 256, ShipBatch: 64,
		Files: 24_000, Stream: streamMixed,
		RoundOps: 20_000, WarmOps: 32_000, SampleEvery: 1,
	},
	{
		Name: "tcp_mixed_batch",
		Why:  "The same mix as 256-op ApplyBatch vectors (under 0.5 RPCs per op): proto's batch planner, codecs, daemon-side filter work and group-committed WAL dominate; a per-call rpcnet fix should not move it.",
		TCP:  true, NumMDS: 12, GroupSize: 6, FilesPerMDS: 16_000, LRUCapacity: 256, ShipBatch: 64,
		Files: 24_000, Stream: streamMixed,
		RoundOps: 160_000, WarmOps: 32_000, Vector: batchVector, SampleEvery: 1,
	},
}

// workloadByName finds a workload of the fixed set.
func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scaled shrinks a workload by div — namespace, filter sizing and round
// lengths alike — for the smoke tests. The shape (cluster size, mix,
// dispatch mode) is untouched.
func (w workload) scaled(div int) workload {
	w.Files = max(w.Files/div, 4*traceTIF) / traceTIF * traceTIF
	w.FilesPerMDS = max(w.FilesPerMDS/uint64(div), 64)
	w.RoundOps = max(w.RoundOps/div, 24*max(w.Vector, 1)*loadWorkers)
	w.WarmOps = max(w.WarmOps/div, 2*max(w.Vector, 1)*loadWorkers)
	return w
}

// config is the ghba.Config both backends share. The cluster's own seed is
// fixed: -seed varies the benchmark's inputs (op streams, entry-server
// draws), never the program's configuration.
func (w workload) config() ghba.Config {
	return ghba.Config{
		NumMDS:              w.NumMDS,
		MaxGroupSize:        w.GroupSize,
		ExpectedFilesPerMDS: w.FilesPerMDS,
		LRUCapacity:         w.LRUCapacity,
		ShipBatch:           w.ShipBatch,
		Seed:                clusterSeed,
	}
}

// traceConfig is the generator configuration behind the namespace (all
// workloads) and the mixed stream.
func (w workload) traceConfig(seed int64) trace.Config {
	return trace.Config{
		Profile:          trace.MustMixProfile(mixLookup, mixCreate, mixDelete),
		TIF:              traceTIF,
		FilesPerSubtrace: uint64(w.Files / traceTIF),
		MeanInterarrival: 2 * time.Millisecond,
		Seed:             seed,
	}
}

// namespace lists every initial path in generator order.
func (w workload) namespace() ([]string, error) {
	gen, err := trace.NewGenerator(w.traceConfig(0))
	if err != nil {
		return nil, err
	}
	paths := make([]string, 0, w.Files)
	gen.EachInitialPath(func(p string) bool {
		paths = append(paths, p)
		return true
	})
	return paths, nil
}

// lookupSource draws namespace indexes for the lookup-only workloads.
type lookupSource struct {
	rng  *rand.Rand
	n    int
	zipf *rand.Zipf // nil for the uniform stream
	perm []int32    // rank → namespace index (Zipf only), shared by lanes
}

// newLookupSources builds one source per lane. Lanes share the rank
// permutation (derived from seed alone) and draw from their own RNG.
func newLookupSources(w workload, seed int64, lanes int) []*lookupSource {
	var perm []int32
	if w.Stream == streamZipf {
		perm = make([]int32, w.Files)
		for i := range perm {
			perm[i] = int32(i)
		}
		r := rand.New(rand.NewSource(seed))
		r.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	}
	out := make([]*lookupSource, lanes)
	for l := range out {
		rng := rand.New(rand.NewSource(trace.SplitSeed(seed, l) + 1))
		s := &lookupSource{rng: rng, n: w.Files, perm: perm}
		if perm != nil {
			s.zipf = rand.NewZipf(rng, zipfExponent, 1, uint64(w.Files-1))
		}
		out[l] = s
	}
	return out
}

// fill replaces idx with the next len(idx) draws.
func (s *lookupSource) fill(idx []int32) {
	if s.zipf == nil {
		for i := range idx {
			idx[i] = int32(s.rng.Intn(s.n))
		}
		return
	}
	for i := range idx {
		idx[i] = s.perm[s.zipf.Uint64()]
	}
}

// deadRing bounds how many recently deleted paths a mixed lane remembers
// for the post-run sweep's "must be absent" sample.
const deadRing = 2048

// mixedSource wraps one generator lane and keeps the lane's ground truth:
// which created files are alive, which were deleted, and how many deletes
// should have found their target. Lanes mint disjoint paths and delete only
// their own, so each lane's truth is independent of scheduling.
type mixedSource struct {
	gen     *trace.Generator
	live    map[string]struct{}
	dead    []string // ring of recent deletions
	deadAt  int
	creates int
	unlinks int // deletes whose target was alive
}

// newMixedSources builds one source per lane of a lanes-way generator
// split (a 1-way split is the serial generator).
func newMixedSources(w workload, seed int64, lanes int) ([]*mixedSource, error) {
	gens, err := trace.SplitGenerators(w.traceConfig(seed), lanes)
	if err != nil {
		return nil, err
	}
	out := make([]*mixedSource, lanes)
	for l, g := range gens {
		out[l] = &mixedSource{gen: g, live: make(map[string]struct{})}
	}
	return out, nil
}

// fill replaces ops with the lane's next len(ops) operations.
func (s *mixedSource) fill(ops []ghba.Op) {
	for i := range ops {
		op := ghba.TraceOp(s.gen.Next())
		switch op.Kind {
		case ghba.OpCreate:
			s.live[op.Path] = struct{}{}
			s.creates++
		case ghba.OpDelete:
			if _, ok := s.live[op.Path]; ok {
				delete(s.live, op.Path)
				s.unlinks++
				if len(s.dead) < deadRing {
					s.dead = append(s.dead, op.Path)
				} else {
					s.dead[s.deadAt] = op.Path
					s.deadAt = (s.deadAt + 1) % deadRing
				}
			}
		}
		ops[i] = op
	}
}

// describe renders the workload definition that run records carry, so
// -compare can refuse records taken from different definitions.
func (w workload) describe() string {
	return fmt.Sprintf("tcp=%t n=%d m=%d files=%d files_per_mds=%d lru=%d ship_batch=%d stream=%d round_ops=%d warm_ops=%d vector=%d sample_every=%d workers=%d mix=%d:%d:%d zipf=%g tif=%d rounds=%d..%d",
		w.TCP, w.NumMDS, w.GroupSize, w.Files, w.FilesPerMDS, w.LRUCapacity, w.ShipBatch, w.Stream,
		w.RoundOps, w.WarmOps, w.Vector, w.SampleEvery, loadWorkers, mixLookup, mixCreate, mixDelete, zipfExponent, traceTIF, minRounds, maxRounds)
}
