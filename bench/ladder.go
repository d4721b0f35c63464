package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"

	"ghba"
	"ghba/internal/bloom"
	"ghba/internal/bloomarray"
	"ghba/internal/core"
	"ghba/internal/mds"
	"ghba/internal/simnet"
	"ghba/internal/trace"
)

// ladderSizes are the operation counts of the traced run's rungs. The
// defaults are fixed (they are part of the benchmark's definition); tests
// shrink them.
type ladderSizes struct {
	// Ops is the stream prefix each simulator-stack rung replays; Tail is
	// how many creates (and then deletes) of fresh paths a lookup-only
	// stream gets appended, so the mutation entry points are measured at
	// every workload's geometry.
	Ops, Tail int
	// ProtoWarm, ProtoOps and ProtoBatchOps are the warm-up, the per-op
	// pass and the batched pass of the TCP rung; ProtoTail the mutations
	// appended to the two timed passes.
	ProtoWarm, ProtoOps, ProtoBatchOps, ProtoTail int
	// Mutations is the call count of the small write-side rungs (AddFile,
	// Put, Note, …); FPRProbes the never-inserted keys probed per layout.
	Mutations, FPRProbes int
	// Echoes is the calls per rpcnet measurement; WALRecords the log
	// length of the recovery rungs; Fsyncs the fsync-per-append calls;
	// Restarts the KillMDS+RestartMDS cycles.
	Echoes, WALRecords, Fsyncs, Restarts int
}

func defaultLadderSizes() ladderSizes {
	return ladderSizes{
		Ops: 40_000, Tail: 2_048,
		ProtoWarm: 16_384, ProtoOps: 6_000, ProtoBatchOps: 24_576, ProtoTail: 512,
		Mutations: 4_096, FPRProbes: 1_000_000,
		Echoes: 3_000, WALRecords: 20_000, Fsyncs: 300, Restarts: 5,
	}
}

// microBatch is how many consecutive calls one span of a sub-microsecond
// rung covers.
const microBatch = 256

// ladder is the traced run: the workload's stream replayed down public
// entry points, each rung a subset of the work of the one above.
type ladder struct {
	w      workload
	o      runOptions
	sz     ladderSizes
	log    *spanLog
	vals   map[string]float64
	notes  []string // derivations, printed with the metrics
	failed int64
	tried  int64
	probs  []string

	// Shapes the self-time derivations need, filled by the rungs.
	groupSize      float64 // mean servers per group of the core cluster
	foundShare     float64 // share of the core rung's lookups that found their file
	protoMeanNS    float64 // mean per-op ns of the proto rung's per-op pass
	protoMutated   float64 // share of that pass's ops that were creates or deletes
	protoPerOpRPCs float64 // RPCs per op of that pass
}

// set records one per-layer metric.
func (l *ladder) set(name string, v float64) { l.vals[name] = v }

// note records one line of derivation.
func (l *ladder) note(format string, args ...any) {
	l.notes = append(l.notes, fmt.Sprintf(format, args...))
}

// ladderSource hands out consecutive segments of a workload's single-lane
// stream as facade ops. Lookup-only streams get a tail of creates and
// deletes of fresh paths per segment.
type ladderSource struct {
	lookups *lookupSource
	mixed   *mixedSource
	paths   []string
	tailSeq int
}

func newLadderSource(w workload, seed int64, paths []string) (*ladderSource, error) {
	s := &ladderSource{paths: paths}
	if w.Stream == streamMixed {
		srcs, err := newMixedSources(w, seed, 1)
		if err != nil {
			return nil, err
		}
		s.mixed = srcs[0]
		return s, nil
	}
	s.lookups = newLookupSources(w, seed, 1)[0]
	return s, nil
}

// next returns the stream's next n operations; for a lookup-only stream the
// last 2·tail of them are tail creates followed by the matching deletes.
func (s *ladderSource) next(n, tail int) []ghba.Op {
	ops := make([]ghba.Op, n)
	if s.mixed != nil {
		s.mixed.fill(ops)
		return ops
	}
	tail = min(tail, n/4)
	idx := make([]int32, n-2*tail)
	s.lookups.fill(idx)
	for i, ix := range idx {
		ops[i] = ghba.Op{Kind: ghba.OpLookup, Path: s.paths[ix]}
	}
	for i := 0; i < tail; i++ {
		p := fmt.Sprintf("/bench/ladder/f%d", s.tailSeq)
		s.tailSeq++
		ops[len(idx)+i] = ghba.Op{Kind: ghba.OpCreate, Path: p}
		ops[len(idx)+tail+i] = ghba.Op{Kind: ghba.OpDelete, Path: p}
	}
	return ops
}

// traceRecord converts a facade op to the trace record the engines dispatch.
func traceRecord(op ghba.Op) trace.Record {
	rec := trace.Record{Path: op.Path, At: op.At, Op: trace.OpStat}
	switch op.Kind {
	case ghba.OpCreate:
		rec.Op = trace.OpCreate
	case ghba.OpDelete:
		rec.Op = trace.OpDelete
	}
	return rec
}

var kindNames = [...]string{ghba.OpLookup: "lookup", ghba.OpCreate: "create", ghba.OpDelete: "delete"}

// kindMeans accumulates per-kind span durations.
type kindMeans struct {
	sum [3]int64
	n   [3]int64
}

func (k *kindMeans) add(kind ghba.OpKind, ns int64) { k.sum[kind] += ns; k.n[kind]++ }

func (k *kindMeans) mean(kind ghba.OpKind) float64 {
	if k.n[kind] == 0 {
		return 0
	}
	return float64(k.sum[kind]) / float64(k.n[kind])
}

// overall is the mean over every kind.
func (k *kindMeans) overall() float64 {
	var sum, ops int64
	for i := range k.sum {
		sum += k.sum[i]
		ops += k.n[i]
	}
	if ops == 0 {
		return 0
	}
	return float64(sum) / float64(ops)
}

// runLadder is the traced run (-trace 1).
func runLadder(ctx context.Context, w workload, o runOptions) (*ladder, error) {
	l := &ladder{w: w, o: o, sz: o.Ladder, log: newSpanLog(w.Name, o.Seed), vals: make(map[string]float64)}

	simW, tcpW := w, w
	simW.TCP, simW.Vector = false, 0
	if w.TCP {
		simW.SampleEvery, simW.WarmOps = 64, l.sz.Ops
	} else {
		tcpW.TCP, tcpW.SampleEvery = true, 1
	}

	// Rung 1: the facade, on the workload's own backend with the closed
	// loop's two workers — the same dispatch the untraced run times.
	own, _, err := setUp(ctx, w, o)
	if err != nil {
		return nil, fmt.Errorf("facade rung set-up: %w", err)
	}
	top := l.rungFacade(ctx, own)
	if !w.TCP {
		l.rungScaling(ctx, own)
	}
	l.collect(own)
	own.close()
	if w.TCP {
		twin, _, err := setUp(ctx, simW, o)
		if err != nil {
			return nil, fmt.Errorf("simulator twin set-up: %w", err)
		}
		l.rungScaling(ctx, twin)
		l.collect(twin)
		twin.close()
	}

	// The simulator stack, single-threaded from here down so every count
	// repeats exactly for a seed.
	paths, err := w.namespace()
	if err != nil {
		return nil, err
	}
	src, err := newLadderSource(w, o.Seed, paths)
	if err != nil {
		return nil, err
	}
	cl, corePass, ops, err := l.rungCore(simW, src, top)
	if err != nil {
		return nil, fmt.Errorf("core rung: %w", err)
	}
	mdsPass, err := l.rungMDS(cl, simW, ops, corePass)
	if err != nil {
		return nil, fmt.Errorf("mds rung: %w", err)
	}
	arrPass, err := l.rungBloomArray(cl, simW, ops, mdsPass)
	if err != nil {
		return nil, fmt.Errorf("bloomarray rung: %w", err)
	}
	if err := l.rungBloom(simW, ops, arrPass); err != nil {
		return nil, fmt.Errorf("bloom rung: %w", err)
	}
	if err := l.rungSmall(simW, ops, mdsPass); err != nil {
		return nil, fmt.Errorf("metastore/shipq/trace rungs: %w", err)
	}

	// The TCP stack.
	protoPass, err := l.rungProto(ctx, tcpW, top)
	if err != nil {
		return nil, fmt.Errorf("proto rung: %w", err)
	}
	netPass, err := l.rungRPCNet(ctx, protoPass)
	if err != nil {
		return nil, fmt.Errorf("rpcnet rung: %w", err)
	}
	if err := l.rungWAL(simW, netPass); err != nil {
		return nil, fmt.Errorf("wal rung: %w", err)
	}

	l.deriveSelfTimes()
	if l.failed > 0 {
		l.probs = append(l.probs, fmt.Sprintf("%d of %d operations failed their output check", l.failed, l.tried))
	}
	spanFile := filepath.Join(o.TmpDir, "spans-"+w.Name+".jsonl")
	if err := l.log.write(spanFile); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	l.note("%d spans written to %s", len(l.log.spans), spanFile)
	return l, nil
}

// collect folds an instance's in-round output checks into the ladder's.
func (l *ladder) collect(in *instance) {
	for _, wk := range in.workers {
		l.failed += wk.failed
	}
}

// facadeEntry names the ghba entry point a workload dispatches through.
func facadeEntry(w workload) string {
	typ := "ghba.Simulation."
	if w.TCP {
		typ = "ghba.Prototype."
	}
	switch {
	case w.Vector > 0:
		return typ + "ApplyBatch"
	case w.Stream == streamMixed:
		return typ + "ApplyWith"
	}
	return typ + "LookupWith"
}

// rungFacade times one untraced and one traced round of the workload on its
// own backend. The traced round wraps every dispatch call in a span; the
// throughput it loses against the untraced round is the tracing overhead.
func (l *ladder) rungFacade(ctx context.Context, in *instance) int32 {
	n := min(in.w.RoundOps, 4*l.sz.Ops)
	generate(in.workers, n)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	plain := in.timeRound(ctx, in.workers)
	runtime.ReadMemStats(&after)
	l.tried += int64(plain.ops)
	l.set("ghba.allocs_per_op", float64(after.Mallocs-before.Mallocs)/float64(plain.ops))
	l.set("ghba.bytes_per_op", float64(after.TotalAlloc-before.TotalAlloc)/float64(plain.ops))

	name := facadeEntry(in.w)
	for _, wk := range in.workers {
		wk.traced, wk.t0 = true, l.log.t0
	}
	pass := l.log.open(name+" pass", -1)
	traced := in.runRound(ctx, in.workers, n)
	l.log.close(pass)
	l.tried += int64(traced.ops)
	var sum int64
	var calls int
	for _, wk := range in.workers {
		for i, start := range wk.starts {
			l.log.add(name, pass, i*max(in.w.Vector, 1), 1, start, start+wk.lat[i])
			sum += wk.lat[i]
		}
		calls += len(wk.starts)
		wk.traced = false
	}
	l.set("ghba.call_ns", float64(sum)/float64(calls))
	// The demoted end-to-end metrics, from the untraced round. The tail of
	// one dispatch call takes the timed calls of both rounds: at the default
	// sizes even tcp_mixed_batch's 2 x 625 vectors leave more than ten
	// samples beyond the p99.
	plainRate := float64(plain.ops) / plain.wall.Seconds()
	tracedRate := float64(traced.ops) / traced.wall.Seconds()
	l.set("ghba.ops_per_s", plainRate)
	l.set("ghba.lat_p50_us", plain.p50)
	pooled := slices.Concat(plain.lat, traced.lat)
	slices.Sort(pooled)
	p99, _ := percentile(pooled, 99, 0)
	l.set("ghba.lat_p99_us", float64(p99)/1e3)
	l.set("ghba.trace_overhead_share", 1-tracedRate/plainRate)
	l.note("ghba.trace_overhead_share = 1 - traced %.0f ops/s / untraced %.0f ops/s (one %d-op round each, %d workers)",
		tracedRate, plainRate, n, len(in.workers))
	return pass
}

// rungScaling measures what the second worker buys on the simulator: the
// throughput of both lanes together over that of lane 0 alone. The gap to
// 2 is time lost waiting on shared state (or on a missing core).
func (l *ladder) rungScaling(ctx context.Context, in *instance) {
	n := min(in.w.RoundOps, 4*l.sz.Ops)
	both := in.runRound(ctx, in.workers, n)
	one := in.runRound(ctx, in.workers[:1], n/len(in.workers))
	l.tried += int64(both.ops + one.ops)
	bothRate := float64(both.ops) / both.wall.Seconds()
	oneRate := float64(one.ops) / one.wall.Seconds()
	l.set("core.scaling_2w", bothRate/oneRate)
	l.note("core.scaling_2w = %.0f ops/s with %d workers / %.0f ops/s with 1 (simulator, untraced)", bothRate, len(in.workers), oneRate)
}

// nodeConfig mirrors the facade's derivation of per-server filter sizing.
func nodeConfig(w workload) mds.Config {
	lru := w.LRUCapacity
	if lru == 0 {
		lru = max(w.FilesPerMDS/16, 64)
	}
	return mds.Config{
		ExpectedFiles:  w.FilesPerMDS,
		BitsPerFile:    16,
		LRUCapacity:    lru,
		LRUBitsPerFile: 16,
		Layout:         bloom.LayoutClassic,
	}
}

// newCore builds and bulk-loads a core.Cluster the way ghba.New does.
func newCore(w workload, paths []string) (*core.Cluster, error) {
	group := w.GroupSize
	if group == 0 {
		group = ghba.RecommendedGroupSize(w.NumMDS)
	}
	cfg := core.DefaultConfig(w.NumMDS, group)
	cfg.Node = nodeConfig(w)
	cfg.Cost = simnet.DefaultCostModel()
	cfg.ShipBatch = w.ShipBatch
	cfg.Seed = clusterSeed
	cl, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	cl.Populate(func(fn func(string) bool) {
		for _, p := range paths {
			if !fn(p) {
				return
			}
		}
	})
	return cl, nil
}

// rungCore replays the stream against core.Cluster, one span per call.
func (l *ladder) rungCore(w workload, src *ladderSource, parent int32) (*core.Cluster, int32, []ghba.Op, error) {
	cl, err := newCore(w, src.paths)
	if err != nil {
		return nil, 0, nil, err
	}
	rng := rand.New(rand.NewSource(trace.DispatchSeed(l.o.Seed, 0)))
	for _, op := range src.next(l.sz.Ops, 0) { // warm L1, untraced
		cl.ApplyWith(rng, traceRecord(op))
	}
	ops := src.next(l.sz.Ops, l.sz.Tail)
	lookupOnly := w.Stream != streamMixed

	levels0 := tally(cl)
	msgs0 := cl.Messages().Total()
	ships0 := cl.Messages().Get(simnet.MsgReplicaUpdate)
	var means kindMeans
	var found int64
	pass := l.log.open("core.Cluster pass", parent)
	for i, op := range ops {
		var res core.LookupResult
		name := "core.Cluster.ApplyWith"
		start := l.log.now()
		if lookupOnly && op.Kind == ghba.OpLookup {
			name = "core.Cluster.LookupWith"
			res = cl.LookupWith(rng, op.Path, -1)
		} else {
			res = cl.ApplyWith(rng, traceRecord(op))
		}
		end := l.log.now()
		l.log.add(name, pass, i, 1, start, end)
		means.add(op.Kind, end-start)
		switch op.Kind {
		case ghba.OpLookup:
			if res.Found {
				found++
			}
			if res.Found != (cl.HomeOf(op.Path) >= 0) || res.Found && res.Home != cl.HomeOf(op.Path) {
				l.failed++
			}
		case ghba.OpCreate:
			if !res.Found {
				l.failed++
			}
		}
	}
	l.log.close(pass)
	l.tried += int64(len(ops))
	cl.Flush()
	if err := cl.CheckInvariants(); err != nil {
		l.probs = append(l.probs, "core rung: CheckInvariants: "+err.Error())
	}

	l.set("core.lookup_ns", means.mean(ghba.OpLookup))
	l.set("core.apply_ns.create", means.mean(ghba.OpCreate))
	l.set("core.apply_ns.delete", means.mean(ghba.OpDelete))
	levels := tally(cl)
	var delta [5]uint64
	for i := range delta {
		delta[i] = levels[i] - levels0[i]
	}
	sh := shares(delta)
	for lv := 1; lv <= 4; lv++ {
		l.set(fmt.Sprintf("core.l%d_share", lv), sh[lv])
	}
	n := float64(len(ops))
	l.set("core.msgs_per_op", float64(cl.Messages().Total()-msgs0)/n)
	l.set("core.replica_ships_per_kop", float64(cl.Messages().Get(simnet.MsgReplicaUpdate)-ships0)/n*1000)
	l.groupSize = float64(cl.NumMDS()) / float64(cl.NumGroups())
	if lk := means.n[ghba.OpLookup]; lk > 0 {
		l.foundShare = float64(found) / float64(lk)
	}
	return cl, pass, ops, nil
}

// tally reads a core cluster's cumulative per-level lookup counts.
func tally(cl *core.Cluster) [5]uint64 {
	var out [5]uint64
	for lv := 1; lv <= 4; lv++ {
		out[lv] = cl.Tally().Count(lv)
	}
	return out
}

// batches calls fn once per microBatch-sized slice [lo, hi) of n items,
// each inside one span, and returns the mean nanoseconds per item.
func (l *ladder) batches(name string, parent int32, n int, fn func(lo, hi int)) float64 {
	if n == 0 {
		return 0
	}
	var total int64
	for lo := 0; lo < n; lo += microBatch {
		hi := min(lo+microBatch, n)
		total += l.log.timed(name, parent, lo, hi-lo, func() { fn(lo, hi) })
	}
	return float64(total) / float64(n)
}

// lookupPaths returns the paths of a stream's lookups, in order.
func lookupPaths(ops []ghba.Op) []string {
	var out []string
	for _, op := range ops {
		if op.Kind == ghba.OpLookup {
			out = append(out, op.Path)
		}
	}
	return out
}

// freshPaths returns n paths no workload ever creates.
func freshPaths(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("/bench/%s/f%d", prefix, i)
	}
	return out
}

// rungMDS calls the per-server entry points on the core cluster's live
// nodes: the L2 probe at the entry server each lookup would have drawn, the
// authoritative check at the home, and the write side on fresh paths.
func (l *ladder) rungMDS(cl *core.Cluster, w workload, ops []ghba.Op, parent int32) (int32, error) {
	paths := lookupPaths(ops)
	ids := cl.MDSIDs()
	rng := rand.New(rand.NewSource(l.o.Seed))
	entries := make([]*mds.Node, len(paths))
	homes := make([]*mds.Node, len(paths))
	for i, p := range paths {
		entries[i] = cl.Node(ids[rng.Intn(len(ids))])
		if h := cl.HomeOf(p); h >= 0 {
			homes[i] = cl.Node(h)
		} else {
			homes[i] = entries[i]
		}
	}
	pass := l.log.open("mds.Node pass", parent)
	defer l.log.close(pass)

	var unique int
	buf := make([]int, 0, 16)
	digests := digestsOf(paths)
	l.set("mds.l2_query_ns", l.batches("mds.Node.QueryL2Digest", pass, len(paths), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if _, ok := entries[i].QueryL2Digest(&digests[i], buf[:0]).Unique(); ok {
				unique++
			}
		}
	}))
	l.set("mds.l2_unique_share", float64(unique)/float64(max(len(paths), 1)))

	var have int
	l.set("mds.has_file_ns", l.batches("mds.Node.HasFile", pass, len(paths), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if homes[i].HasFile(paths[i]) {
				have++
			}
		}
	}))

	// The write side runs on one live node with paths nobody else uses;
	// every add is deleted again, so the cluster's ground truth is intact.
	node := cl.Node(ids[0])
	fresh := freshPaths("mds", l.sz.Mutations)
	l.set("mds.add_file_ns", l.batches("mds.Node.AddFile", pass, len(fresh), func(lo, hi int) {
		for _, p := range fresh[lo:hi] {
			node.AddFile(p)
		}
	}))
	var gone int
	l.set("mds.delete_file_ns", l.batches("mds.Node.DeleteFile", pass, len(fresh), func(lo, hi int) {
		for _, p := range fresh[lo:hi] {
			if node.DeleteFile(p) {
				gone++
			}
		}
	}))
	if gone != len(fresh) {
		l.failed += int64(len(fresh) - gone)
	}
	l.tried += int64(len(fresh))
	const ships = 64
	var shipNS int64
	for i := 0; i < ships; i++ {
		shipNS += l.log.timed("mds.Node.Ship", pass, i, 1, func() { node.Ship() })
	}
	l.set("mds.ship_ns", float64(shipNS)/ships)

	// Snapshot cost of one live node, per file it homes.
	files := float64(max(node.FileCount(), 1))
	var blob []byte
	var err error
	l.log.timed("mds.Node.MarshalSnapshot", pass, 0, 1, func() { blob, err = node.MarshalSnapshot() })
	if err != nil {
		return pass, err
	}
	l.set("mds.snapshot_bytes_per_file", float64(len(blob))/files)
	const loads = 5
	var loadNS int64
	for i := 0; i < loads && err == nil; i++ {
		var fresh *mds.Node
		if fresh, err = mds.NewNode(node.ID(), nodeConfig(w)); err == nil {
			loadNS += l.log.timed("mds.Node.UnmarshalSnapshot", pass, i, 1, func() { err = fresh.UnmarshalSnapshot(blob) })
		}
	}
	if err != nil {
		return pass, err
	}
	l.set("mds.snapshot_load_ns_per_file", float64(loadNS)/loads/files)
	return pass, nil
}

// digestsOf hashes every path once. The digests are fresh: like a lookup's
// own digest, each materializes its probe positions inside the first filter
// probe of the rung that consumes it.
func digestsOf(paths []string) []bloom.Digest {
	out := make([]bloom.Digest, len(paths))
	for i, p := range paths {
		out[i] = bloom.NewDigestString(p)
	}
	return out
}

// sinkDigest keeps the compiler from discarding the hash being timed.
var sinkDigest bloom.Digest

// rungBloomArray measures the two array types at the workload's geometry:
// a segment array holding as many replicas as a live server does (clones of
// live filters, so realistically full), and an LRU array warmed by the
// stream itself.
func (l *ladder) rungBloomArray(cl *core.Cluster, w workload, ops []ghba.Op, parent int32) (int32, error) {
	paths := lookupPaths(ops)
	ids := cl.MDSIDs()
	theta := max(cl.Node(ids[0]).ReplicaCount(), 1)
	arr := bloomarray.NewArray()
	for _, id := range ids[:min(theta, len(ids))] {
		arr.Put(id, cl.Node(id).LocalFilter().Clone())
	}
	pass := l.log.open("bloomarray pass", parent)
	defer l.log.close(pass)
	digests := digestsOf(paths)

	buf := make([]int, 0, 16)
	var hits int
	l.set("bloomarray.array_query_ns", l.batches("bloomarray.Array.QueryDigest", pass, len(digests), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			hits += len(arr.QueryDigest(&digests[i], buf[:0]).Hits)
		}
	}))
	l.set("bloomarray.array_bytes", float64(arr.SizeBytes()))
	spare := cl.Node(ids[0]).LocalFilter().Clone()
	l.set("bloomarray.array_put_ns", l.batches("bloomarray.Array.Put", pass, l.sz.Mutations, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arr.Put(ids[i%theta], spare)
		}
	}))

	cfg := nodeConfig(w)
	lru, err := bloomarray.NewLRUArrayLayout(cfg.LRUCapacity, cfg.LRUBitsPerFile, cfg.Layout)
	if err != nil {
		return pass, err
	}
	digests = digestsOf(paths) // the LRU generations have their own geometry
	homes := make([]int, len(paths))
	for i, p := range paths {
		homes[i] = max(cl.HomeOf(p), 0)
		lru.ObserveDigest(&digests[i], homes[i]) // warm, untimed
	}
	var l1 int
	l.set("bloomarray.lru_query_ns", l.batches("bloomarray.LRUArray.QueryDigest", pass, len(digests), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if _, ok := lru.QueryDigest(&digests[i], buf[:0]).Unique(); ok {
				l1++
			}
		}
	}))
	l.set("bloomarray.lru_hit_share", float64(l1)/float64(max(len(digests), 1)))
	l.set("bloomarray.lru_observe_ns", l.batches("bloomarray.LRUArray.ObserveDigest", pass, len(digests), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			lru.ObserveDigest(&digests[i], homes[i])
		}
	}))
	l.set("bloomarray.lru_bytes", float64(lru.SizeBytes()))
	_ = hits
	return pass, nil
}

// rungBloom measures one filter at the workload's geometry, in both
// layouts, and the measured false-positive rate beside theory.
func (l *ladder) rungBloom(w workload, ops []ghba.Op, parent int32) error {
	paths := lookupPaths(ops)
	pass := l.log.open("bloom pass", parent)
	defer l.log.close(pass)
	l.set("bloom.digest_ns", l.batches("bloom.NewDigestString", pass, len(paths), func(lo, hi int) {
		for _, p := range paths[lo:hi] {
			sinkDigest = bloom.NewDigestString(p)
		}
	}))
	cfg := nodeConfig(w)
	perNode := w.Files / w.NumMDS

	var classic *bloom.Filter
	for _, lay := range []bloom.Layout{bloom.LayoutClassic, bloom.LayoutBlocked} {
		// Load: what one server of this workload holds.
		f, err := bloom.NewForCapacityLayout(cfg.ExpectedFiles, cfg.BitsPerFile, lay)
		if err != nil {
			return err
		}
		for i := 0; i < perNode; i++ {
			f.AddString(fmt.Sprintf("/bench/bloom/member%d", i))
		}
		digests := digestsOf(paths)
		var pos int
		l.set("bloom.contains_ns."+lay.String(), l.batches("bloom.Filter.ContainsDigest/"+lay.String(), pass, len(digests), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if f.ContainsDigest(&digests[i]) {
					pos++
				}
			}
		}))
		if lay == bloom.LayoutClassic {
			classic = f
		}

		// False-positive rate done properly: fill a filter to its design
		// load (m/n = BitsPerFile), then probe keys that were never
		// inserted and count positives. (Counting inserted keys that test
		// negative, as SNIPPETS.md snippet 3 does, measures false negatives,
		// which a Bloom filter does not have.)
		full, err := bloom.NewForCapacityLayout(cfg.ExpectedFiles, cfg.BitsPerFile, lay)
		if err != nil {
			return err
		}
		for i := uint64(0); i < cfg.ExpectedFiles; i++ {
			full.AddString(fmt.Sprintf("/bench/fpr/in%d", i))
		}
		var falsePos int
		key := make([]byte, 0, 32)
		l.batches("bloom.Filter.Contains/fpr/"+lay.String(), pass, l.sz.FPRProbes, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				key = fmt.Appendf(key[:0], "/bench/fpr/out%d", i)
				if full.Contains(key) {
					falsePos++
				}
			}
		})
		l.set("bloom.fpr_measured."+lay.String(), float64(falsePos)/float64(l.sz.FPRProbes))
		if lay == bloom.LayoutClassic {
			l.set("bloom.fpr_theory", bloom.FalsePositiveRate(full.M(), cfg.ExpectedFiles, full.K()))
			l.note("bloom.fpr_*: %d never-inserted keys probed against a filter holding n=%d keys in m=%d bits (k=%d); theory (1-e^(-kn/m))^k; a segment array of theta such filters returns a unique false hit with probability bloom.SegmentFalsePositive(theta, %g)",
				l.sz.FPRProbes, cfg.ExpectedFiles, full.M(), full.K(), cfg.BitsPerFile)
		}
	}

	fresh := make([]bloom.Digest, l.sz.Mutations)
	for i, p := range freshPaths("bloom", l.sz.Mutations) {
		fresh[i] = bloom.NewDigestString(p)
	}
	l.set("bloom.add_ns", l.batches("bloom.Filter.AddDigest", pass, len(fresh), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			classic.AddDigest(&fresh[i])
		}
	}))
	other := classic.Clone()
	other.AddString("/bench/bloom/drift")
	const reps = 64
	var xorNS, marNS, unmarNS int64
	var wire []byte
	var err error
	for i := 0; i < reps && err == nil; i++ {
		xorNS += l.log.timed("bloom.Filter.XorBits", pass, i, 1, func() { _, err = classic.XorBits(other) })
	}
	for i := 0; i < reps && err == nil; i++ {
		marNS += l.log.timed("bloom.Filter.MarshalBinary", pass, i, 1, func() { wire, err = classic.MarshalBinary() })
	}
	for i := 0; i < reps && err == nil; i++ {
		var back bloom.Filter
		unmarNS += l.log.timed("bloom.Filter.UnmarshalBinary", pass, i, 1, func() { err = back.UnmarshalBinary(wire) })
	}
	if err != nil {
		return err
	}
	l.set("bloom.xor_ns", float64(xorNS)/reps)
	l.set("bloom.marshal_ns", float64(marNS)/reps)
	l.set("bloom.unmarshal_ns", float64(unmarNS)/reps)
	l.set("bloom.wire_bytes", float64(len(wire)))
	return nil
}

// deriveSelfTimes computes the two parents' self times from the rungs
// below them and records how.
func (l *ladder) deriveSelfTimes() {
	v := l.vals
	l1, l3, l4 := v["core.l1_share"], v["core.l3_share"], v["core.l4_share"]
	children := v["bloom.digest_ns"] +
		v["bloomarray.lru_query_ns"] +
		(1-l1)*v["mds.l2_query_ns"] +
		(l3+l4)*(l.groupSize-1)*v["mds.l2_query_ns"] +
		(1-l4)*v["mds.has_file_ns"] +
		l.foundShare*v["bloomarray.lru_observe_ns"]
	l.set("core.self_ns", v["core.lookup_ns"]-children)
	l.note("core.self_ns = core.lookup_ns %.0f - [bloom.digest_ns %.0f + bloomarray.lru_query_ns %.0f + (1-l1 %.3f)*mds.l2_query_ns %.0f + (l3+l4 %.3f)*(group %.1f - 1)*mds.l2_query_ns + (1-l4 %.3f)*mds.has_file_ns %.0f + found %.3f*bloomarray.lru_observe_ns %.0f] = %.0f - %.0f (a negative value is a bug in the ladder)",
		v["core.lookup_ns"], v["bloom.digest_ns"], v["bloomarray.lru_query_ns"], 1-l1, v["mds.l2_query_ns"], l3+l4, l.groupSize,
		1-l4, v["mds.has_file_ns"], l.foundShare, v["bloomarray.lru_observe_ns"], v["core.lookup_ns"], children)

	wire := l.protoPerOpRPCs * v["rpcnet.mux_call_ns"]
	disk := l.protoMutated * v["wal.append_ns.always"]
	l.set("proto.self_ns", l.protoMeanNS-wire-disk)
	l.note("proto.self_ns = per-op mean %.0f - per-op-pass RPCs per op %.2f*rpcnet.mux_call_ns %.0f - mutation share %.3f*wal.append_ns.always %.0f = %.0f (negative means the op's RPCs overlapped: multicast legs run concurrently)",
		l.protoMeanNS, l.protoPerOpRPCs, v["rpcnet.mux_call_ns"], l.protoMutated, v["wal.append_ns.always"], l.protoMeanNS-wire-disk)
}

// result renders the ladder in the driver's output shape.
func (l *ladder) result() result {
	res := result{
		Correct:   len(l.probs) == 0,
		Attempted: max(l.tried, 1),
		Failed:    l.failed,
		Metrics:   make(map[string]value),
	}
	for _, m := range perLayer {
		res.Metrics[m.Name] = value{Value: l.vals[m.Name], Unit: m.Unit}
	}
	return res
}

// print writes the human-readable account of the traced run.
func (l *ladder) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s seed %d: traced run (layer ladder), %s, GOMAXPROCS %d\n",
		l.w.Name, l.o.Seed, runtime.Version(), runtime.GOMAXPROCS(0))
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-36s %16.4f %s\n", m.Name, l.vals[m.Name], m.Unit)
	}
	for _, n := range l.notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
	for _, p := range l.probs {
		fmt.Fprintf(w, "  NOT CORRECT: %s\n", p)
	}
}
