package trace

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"
)

// Config parameterizes a Generator.
type Config struct {
	// Profile selects the workload family.
	Profile Profile
	// TIF is the trace-intensifying factor: the number of disjoint
	// sub-traces replayed concurrently. Must be ≥ 1.
	TIF int
	// FilesPerSubtrace is the number of distinct files in each sub-trace's
	// namespace. Experiments size this to keep simulations laptop scale;
	// it defaults to 50 000 when zero.
	FilesPerSubtrace uint64
	// MeanInterarrival is the average gap between consecutive requests of
	// the merged stream (exponentially distributed). Defaults to 100 µs —
	// an aggregate arrival rate of 10 000 req/s.
	MeanInterarrival time.Duration
	// Seed makes the stream deterministic.
	Seed int64
}

// DefaultFilesPerSubtrace is used when Config.FilesPerSubtrace is zero.
const DefaultFilesPerSubtrace = 50_000

// DefaultMeanInterarrival is used when Config.MeanInterarrival is zero.
const DefaultMeanInterarrival = 100 * time.Microsecond

func (c *Config) applyDefaults() error {
	if c.Profile.Name == "" {
		return fmt.Errorf("trace: config has no profile")
	}
	if c.TIF < 1 {
		return fmt.Errorf("trace: TIF must be ≥ 1, got %d", c.TIF)
	}
	if c.FilesPerSubtrace == 0 {
		c.FilesPerSubtrace = DefaultFilesPerSubtrace
	}
	if c.MeanInterarrival <= 0 {
		c.MeanInterarrival = DefaultMeanInterarrival
	}
	return nil
}

// Generator produces a deterministic infinite stream of trace records,
// merging TIF concurrent sub-traces with disjoint namespaces.
//
// A generator can be one lane of an n-way split (see SplitGenerators):
// create allocation is then strided so concurrent lanes never mint the same
// fresh path. A plain NewGenerator is the 1-way split (offset 0, stride 1).
type Generator struct {
	cfg  Config
	rng  *rand.Rand
	zipf *rand.Zipf
	subs []*subtrace
	seq  uint64
	now  time.Duration

	// createStride is the gap between consecutive fresh file indices this
	// lane allocates; 1 for a serial generator.
	createStride uint64
}

// subtrace holds the per-sub-trace locality state: a ring buffer of recently
// accessed file indices that the repeat process re-references, and the
// allocator for freshly created files.
type subtrace struct {
	recent  []uint64
	head    int
	filled  int
	nextNew uint64   // next unused file index (starts past the initial namespace)
	created []uint64 // recently created, not yet deleted files (temp-file pool)
}

// NewGenerator builds a generator for cfg.
func NewGenerator(cfg Config) (*Generator, error) {
	return newLaneGenerator(cfg, 0, 1)
}

// newLaneGenerator builds lane `offset` of a `stride`-way split: fresh file
// indices start at FilesPerSubtrace+offset and advance by stride, keeping
// concurrently replayed lanes' created namespaces disjoint.
func newLaneGenerator(cfg Config, offset, stride uint64) (*Generator, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ws := cfg.Profile.WorkingSet
	if ws <= 0 {
		ws = 1024
	}
	g := &Generator{
		cfg:          cfg,
		rng:          rng,
		zipf:         rand.NewZipf(rng, cfg.Profile.ZipfS, 1, cfg.FilesPerSubtrace-1),
		subs:         make([]*subtrace, cfg.TIF),
		createStride: stride,
	}
	for i := range g.subs {
		g.subs[i] = &subtrace{
			recent:  make([]uint64, ws),
			nextNew: cfg.FilesPerSubtrace + offset,
		}
	}
	return g, nil
}

// SplitSeed derives the seed of one lane of an n-way split. Lane 0 keeps
// the base seed, so a 1-way split replays exactly the serial stream — the
// contract the parallel replay engine's single-worker reproducibility
// rests on. Other lanes get SplitMix64-style spacing to stay uncorrelated.
func SplitSeed(seed int64, lane int) int64 {
	if lane == 0 {
		return seed
	}
	const golden = uint64(0x9E3779B97F4A7C15)
	return seed ^ int64(uint64(lane)*golden)
}

// DispatchSeed derives worker w's record-dispatch RNG seed — the stream
// that picks entry MDSes and home placements during a replay. It is the
// single derivation every parallel driver (the facade's worker pools, the
// replay engine) must share: the serial engine is worker 0 by definition,
// so any two call sites that disagree silently break the pinned
// single-worker ≡ serial equivalence tests. The salt keeps dispatch seeds
// disjoint from SplitSeed's lane seeds, so a worker's dispatch RNG can
// never replay a neighbouring lane's generator stream.
func DispatchSeed(seed int64, worker int) int64 {
	const (
		golden       = uint64(0x9E3779B97F4A7C15)
		dispatchSalt = int64(-6148914691236517206) // 0xAAAA…AAAA: flips alternate bits
	)
	return seed ^ int64(uint64(worker+1)*golden) ^ dispatchSalt
}

// SplitGenerators returns n generators whose merged output stands in for
// the serial stream of cfg: each lane draws operations and file popularity
// from its own seeded RNG over the shared initial namespace, while created
// paths come from disjoint strided index ranges so concurrent lanes never
// collide on a fresh file. Lane inter-arrivals are stretched by n — the
// standard thinning of a Poisson process — so the lanes' merged arrival
// rate matches the serial stream's and queue-model latencies stay
// comparable across worker counts. A 1-way split is bit-for-bit the serial
// generator.
func SplitGenerators(cfg Config, n int) ([]*Generator, error) {
	if n < 1 {
		return nil, fmt.Errorf("trace: split count must be ≥ 1, got %d", n)
	}
	interarrival := cfg.MeanInterarrival
	if interarrival <= 0 {
		interarrival = DefaultMeanInterarrival
	}
	out := make([]*Generator, n)
	for w := 0; w < n; w++ {
		c := cfg
		c.Seed = SplitSeed(cfg.Seed, w)
		c.MeanInterarrival = interarrival * time.Duration(n)
		g, err := newLaneGenerator(c, uint64(w), uint64(n))
		if err != nil {
			return nil, err
		}
		out[w] = g
	}
	return out, nil
}

// Config returns the effective configuration after defaulting.
func (g *Generator) Config() Config { return g.cfg }

// PathFor returns the deterministic path of file index within a sub-trace.
// The layout spreads files over a two-level directory tree so path strings
// resemble a real namespace: /subS/dD1/dD2/fF.
func PathFor(sub int, file uint64) string {
	d1 := file % 97
	d2 := (file / 97) % 89
	var b []byte
	b = append(b, "/sub"...)
	b = strconv.AppendInt(b, int64(sub), 10)
	b = append(b, "/d"...)
	b = strconv.AppendUint(b, d1, 10)
	b = append(b, "/d"...)
	b = strconv.AppendUint(b, d2, 10)
	b = append(b, "/f"...)
	b = strconv.AppendUint(b, file, 10)
	return string(b)
}

// EachInitialPath calls fn for every path in the initial namespace (all
// sub-traces), in deterministic order, until fn returns false. Simulations
// use this to pre-populate MDSs ("all MDSs are initially populated
// randomly") without materializing the namespace in memory.
func (g *Generator) EachInitialPath(fn func(path string) bool) {
	for sub := 0; sub < g.cfg.TIF; sub++ {
		for f := uint64(0); f < g.cfg.FilesPerSubtrace; f++ {
			if !fn(PathFor(sub, f)) {
				return
			}
		}
	}
}

// InitialFileCount returns the total number of files across all sub-traces.
func (g *Generator) InitialFileCount() uint64 {
	return uint64(g.cfg.TIF) * g.cfg.FilesPerSubtrace
}

// pickOp draws an operation from the profile mix.
func (g *Generator) pickOp() OpType {
	w := g.cfg.Profile.weights
	x := g.rng.Float64()
	for i, p := range w {
		if x < p {
			return OpType(i + 1)
		}
		x -= p
	}
	return OpStat
}

// pickFile draws a file index for a sub-trace, re-referencing the working
// set with the profile's repeat probability.
func (g *Generator) pickFile(st *subtrace) uint64 {
	if st.filled > 0 && g.rng.Float64() < g.cfg.Profile.RepeatProb {
		return st.recent[g.rng.Intn(st.filled)]
	}
	f := g.zipf.Uint64()
	g.remember(st, f)
	return f
}

// remember pushes a file index into the working-set ring.
func (g *Generator) remember(st *subtrace, f uint64) {
	st.recent[st.head] = f
	st.head = (st.head + 1) % len(st.recent)
	if st.filled < len(st.recent) {
		st.filled++
	}
}

// createdPoolCap bounds the temp-file pool; beyond it, the oldest creations
// are considered permanent and no longer deletion candidates.
const createdPoolCap = 512

// pickCreate allocates a fresh, never-used file index, so creates never
// collide with existing files. The new file joins the working set — exactly
// the access pattern that makes freshly created files the staleness
// stress case for remote Bloom-filter replicas — and the temp-file pool
// that deletes draw from.
func (g *Generator) pickCreate(st *subtrace) uint64 {
	f := st.nextNew
	st.nextNew += g.createStride
	g.remember(st, f)
	if len(st.created) < createdPoolCap {
		st.created = append(st.created, f)
	}
	return f
}

// pickDelete removes a recently created file (temp-file lifecycle: created,
// used briefly, unlinked). Deleting files from the hot read set would be
// unrealistic — real workloads do not keep stat-ing unlinked files — and
// would turn the Zipf head into a stream of global-multicast misses. When no
// created file is available the delete targets a fresh index: a no-op unlink
// of a nonexistent file.
func (g *Generator) pickDelete(st *subtrace) uint64 {
	if len(st.created) == 0 {
		f := st.nextNew
		st.nextNew += g.createStride
		return f
	}
	f := st.created[len(st.created)-1]
	st.created = st.created[:len(st.created)-1]
	return f
}

// Next returns the next record of the merged stream. The stream is infinite;
// callers decide how many operations to replay.
func (g *Generator) Next() Record {
	sub := g.rng.Intn(g.cfg.TIF)
	st := g.subs[sub]
	op := g.pickOp()
	var file uint64
	switch op {
	case OpCreate:
		file = g.pickCreate(st)
	case OpDelete:
		file = g.pickDelete(st)
	default:
		file = g.pickFile(st)
	}
	// Exponential inter-arrival: the merged stream is the superposition of
	// TIF Poisson sub-streams, itself Poisson at the aggregate rate.
	gap := time.Duration(-math.Log(1-g.rng.Float64()) * float64(g.cfg.MeanInterarrival))
	g.now += gap
	g.seq++

	hostsPerSub := g.cfg.Profile.Base.Hosts
	if hostsPerSub <= 0 {
		hostsPerSub = 32 // HP reports no host count; use its active-user scale
	}
	usersPerSub := g.cfg.Profile.Base.Users
	if usersPerSub <= 0 {
		usersPerSub = g.cfg.Profile.Base.ActiveUsers
		if usersPerSub <= 0 {
			usersPerSub = 16
		}
	}
	return Record{
		Seq:      g.seq,
		At:       g.now,
		Op:       op,
		Path:     PathFor(sub, file),
		Subtrace: sub,
		Host:     sub*hostsPerSub + g.rng.Intn(hostsPerSub),
		User:     sub*usersPerSub + g.rng.Intn(usersPerSub),
	}
}
