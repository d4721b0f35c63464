package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"ghba"
	"ghba/internal/mds"
	"ghba/internal/metastore"
	"ghba/internal/proto"
	"ghba/internal/rpcnet"
	"ghba/internal/shipq"
	"ghba/internal/trace"
	"ghba/internal/wal"
)

// The RPC types whose per-op counts the proto rung reports: the scalar ones
// are read from its per-op pass, the batch ones from its batched pass.
var (
	perOpOpcodes = []string{"query_entry", "query_member", "verify", "has_local", "create_file", "delete_file", "observe_batch", "ship_filter", "install_replica"}
	batchOpcodes = []string{"lookup_batch", "query_member_batch", "verify_batch", "has_local_batch", "create_batch", "delete_batch"}
)

// rungSmall measures the three leaf modules the stream touches outside the
// filter hierarchy: the metadata store behind every verify, the coalescing
// ship queue behind every threshold crossing, and the trace generator (to
// show it is never the bottleneck of a round it fills off the clock).
func (l *ladder) rungSmall(w workload, ops []ghba.Op, parent int32) error {
	pass := l.log.open("metastore/shipq/trace pass", parent)
	defer l.log.close(pass)
	paths := lookupPaths(ops)
	store := metastore.NewStore()
	for _, p := range paths {
		store.PutPath(p)
	}
	for i := store.Len(); i < w.Files/w.NumMDS; i++ { // fill up to one server's load
		store.PutPath(fmt.Sprintf("/bench/metastore/resident%d", i))
	}
	var have int
	l.set("metastore.has_ns", l.batches("metastore.Store.Has", pass, len(paths), func(lo, hi int) {
		for _, p := range paths[lo:hi] {
			if store.Has(p) {
				have++
			}
		}
	}))
	if have != len(paths) {
		l.failed += int64(len(paths) - have)
	}
	fresh := freshPaths("metastore", l.sz.Mutations)
	l.set("metastore.put_ns", l.batches("metastore.Store.PutPath", pass, len(fresh), func(lo, hi int) {
		for _, p := range fresh[lo:hi] {
			store.PutPath(p)
		}
	}))

	q := shipq.New(max(w.ShipBatch, 1))
	l.set("shipq.note_ns", l.batches("shipq.Queue.Note", pass, l.sz.Mutations, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			q.Note(i % w.NumMDS)
		}
	}))

	gen, err := trace.NewGenerator(w.traceConfig(l.o.Seed))
	if err != nil {
		return err
	}
	var last trace.Record
	l.set("trace.next_ns", l.batches("trace.Generator.Next", pass, l.sz.Ops, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			last = gen.Next()
		}
	}))
	_ = last
	return nil
}

// rungProto replays the stream against proto.Cluster over loopback sockets:
// one per-op pass (a span per call, RPCs counted per type), one pass of
// batchVector-op ApplyBatch vectors, then kill/restart cycles. Everything
// runs on one goroutine from a freshly booted cluster, so the counts repeat
// exactly.
func (l *ladder) rungProto(ctx context.Context, w workload, parent int32) (int32, error) {
	in, err := startBackend(w, l.o.TmpDir)
	if err != nil {
		return 0, err
	}
	defer in.close()
	cl := in.b.(*ghba.Prototype).Cluster()
	src, err := newLadderSource(w, l.o.Seed, in.paths)
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(trace.DispatchSeed(l.o.Seed, 0)))
	recs := make([]trace.Record, 0, batchVector)
	// applyVec dispatches one vector through ApplyBatch.
	applyVec := func(vec []ghba.Op) ([]proto.LookupResult, error) {
		recs = recs[:0]
		for _, op := range vec {
			recs = append(recs, traceRecord(op))
		}
		return cl.ApplyBatch(ctx, rng, recs)
	}
	warm := src.next(l.sz.ProtoWarm, 0) // L1, replicas and sockets to steady state, untraced
	for at := 0; at < len(warm); at += batchVector {
		if _, err := applyVec(warm[at:min(at+batchVector, len(warm))]); err != nil {
			return 0, err
		}
	}
	check := func(op ghba.Op, found bool, home int) {
		l.tried++
		switch op.Kind {
		case ghba.OpLookup:
			if truth := cl.HomeOf(op.Path); found != (truth >= 0) || found && home != truth {
				l.failed++
			}
		case ghba.OpCreate:
			if !found {
				l.failed++
			}
		}
	}
	sum := func(counts map[string]uint64) (total uint64) {
		for _, n := range counts {
			total += n
		}
		return total
	}

	// Per-op pass.
	ops := src.next(l.sz.ProtoOps, l.sz.ProtoTail)
	cl.ResetRPCCounts()
	levels0, ships0 := cl.LevelCounts(), cl.ReplicaUpdates()
	var means kindMeans
	pass := l.log.open("proto.Cluster pass", parent)
	for i, op := range ops {
		start := l.log.now()
		res, err := cl.ApplyWith(ctx, rng, traceRecord(op))
		end := l.log.now()
		if err != nil {
			return pass, fmt.Errorf("op %d (%s %q): %w", i, kindNames[op.Kind], op.Path, err)
		}
		l.log.add("proto.Cluster.ApplyWith", pass, i, 1, start, end)
		means.add(op.Kind, end-start)
		check(op, res.Found, res.Home)
	}
	perOp := cl.RPCCounts()
	n := float64(len(ops))
	for _, k := range []ghba.OpKind{ghba.OpLookup, ghba.OpCreate, ghba.OpDelete} {
		l.set("proto.apply_ns."+kindNames[k], means.mean(k))
	}
	for _, name := range perOpOpcodes {
		l.set("proto.rpcs_per_op."+name, float64(perOp[name])/n)
	}
	levels := cl.LevelCounts()
	var delta [5]uint64
	for i := range delta {
		delta[i] = levels[i] - levels0[i]
	}
	sh := shares(delta)
	for lv := 1; lv <= 4; lv++ {
		l.set(fmt.Sprintf("proto.l%d_share", lv), sh[lv])
	}
	l.set("proto.replica_ships_per_kop", float64(cl.ReplicaUpdates()-ships0)/n*1000)
	l.protoMeanNS = means.overall()
	l.protoMutated = float64(means.n[ghba.OpCreate]+means.n[ghba.OpDelete]) / n
	l.protoPerOpRPCs = float64(sum(perOp)) / n

	// Batched pass.
	bops := src.next(l.sz.ProtoBatchOps, l.sz.ProtoTail)
	cl.ResetRPCCounts()
	var batchNS int64
	mutated := make(map[string]struct{})
	for at := 0; at < len(bops); at += batchVector {
		vec := bops[at:min(at+batchVector, len(bops))]
		start := l.log.now()
		res, err := applyVec(vec)
		end := l.log.now()
		if err != nil {
			return pass, fmt.Errorf("batch at op %d: %w", at, err)
		}
		l.log.add("proto.Cluster.ApplyBatch", pass, at, 1, start, end)
		batchNS += end - start
		// Ground truth is read after the whole vector ran, so a lookup is
		// only checkable if nothing in the vector mutated its path.
		clear(mutated)
		for _, op := range vec {
			if op.Kind != ghba.OpLookup {
				mutated[op.Path] = struct{}{}
			}
		}
		for i, op := range vec {
			if _, ok := mutated[op.Path]; ok && op.Kind == ghba.OpLookup {
				continue
			}
			check(op, res[i].Found, res[i].Home)
		}
	}
	batched := cl.RPCCounts()
	bn := float64(len(bops))
	l.set("proto.batch_ns_per_op", float64(batchNS)/bn)
	for _, name := range batchOpcodes {
		l.set("proto.rpcs_per_op."+name, float64(batched[name])/bn)
	}
	// The headline count follows the workload's own dispatch mode.
	if l.w.Vector > 0 {
		l.set("proto.rpcs_per_op", float64(sum(batched))/bn)
	} else {
		l.set("proto.rpcs_per_op", l.protoPerOpRPCs)
	}
	if err := cl.Flush(ctx); err != nil {
		return pass, err
	}
	l.log.close(pass)

	// Restart cost: crash a daemon in place, recover it from its WAL.
	ids := cl.MDSIDs()
	var restarts []float64
	for i := 0; i < l.sz.Restarts; i++ {
		id := ids[i%len(ids)]
		start := l.log.now()
		if err := cl.KillMDS(id); err != nil {
			return pass, err
		}
		if _, err := cl.RestartMDS(ctx, id); err != nil {
			return pass, err
		}
		end := l.log.now()
		l.log.add("proto.Cluster.KillMDS+RestartMDS", pass, i, 1, start, end)
		restarts = append(restarts, float64(end-start)/1e6)
	}
	l.set("proto.restart_ms", median(restarts))
	return pass, nil
}

// rungRPCNet measures one RPC round trip in isolation: a 64-byte echo
// through the multiplexed client and through the classic pool, alone and
// with a second concurrent caller (which waits on the shared socket or takes
// a second pooled connection), plus a batch-frame-sized payload.
func (l *ladder) rungRPCNet(ctx context.Context, parent int32) (int32, error) {
	srv, err := rpcnet.Serve("127.0.0.1:0", func(_ uint8, payload []byte) ([]byte, error) { return payload, nil })
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	mux := rpcnet.NewMuxClient(srv.Addr(), rpcnet.MuxOptions{})
	defer mux.Close()
	pool := rpcnet.NewPool(srv.Addr(), rpcnet.PoolOptions{})
	defer pool.Close()
	pass := l.log.open("rpcnet pass", parent)
	defer l.log.close(pass)

	type callFn func(context.Context, uint8, []byte) ([]byte, error)
	// echo times calls round trips from each of callers goroutines and
	// returns the mean nanoseconds of one.
	echo := func(name string, call callFn, size, callers int) (float64, error) {
		payload := make([]byte, size)
		per := max(l.sz.Echoes/callers, 1)
		for i := 0; i < min(per, 64); i++ { // dial and warm
			if _, err := call(ctx, 1, payload); err != nil {
				return 0, err
			}
		}
		type sample struct{ start, end int64 }
		samples := make([][]sample, callers)
		errs := make([]error, callers)
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			samples[c] = make([]sample, 0, per)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					start := l.log.now()
					if _, err := call(ctx, 1, payload); err != nil {
						errs[c] = err
						return
					}
					samples[c] = append(samples[c], sample{start, l.log.now()})
				}
			}()
		}
		wg.Wait()
		var total int64
		var n int
		for c := range samples {
			if errs[c] != nil {
				return 0, errs[c]
			}
			for i, s := range samples[c] {
				l.log.add(name, pass, i, 1, s.start, s.end)
				total += s.end - s.start
			}
			n += len(samples[c])
		}
		return float64(total) / float64(n), nil
	}
	// allocs counts heap allocations per round trip, both ends included
	// (client and echo server share the process).
	allocs := func(call callFn) (float64, error) {
		payload := make([]byte, 64)
		n := max(l.sz.Echoes/4, 1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			if _, err := call(ctx, 1, payload); err != nil {
				return 0, err
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / float64(n), nil
	}
	for _, m := range []struct {
		metric, span  string
		call          callFn
		size, callers int
	}{
		{"rpcnet.mux_call_ns", "rpcnet.MuxClient.CallContext", mux.CallContext, 64, 1},
		{"rpcnet.classic_call_ns", "rpcnet.Pool.CallContext", pool.CallContext, 64, 1},
		{"rpcnet.mux_call_ns.2c", "rpcnet.MuxClient.CallContext/2c", mux.CallContext, 64, 2},
		{"rpcnet.classic_call_ns.2c", "rpcnet.Pool.CallContext/2c", pool.CallContext, 64, 2},
		{"rpcnet.mux_call_ns.16k", "rpcnet.MuxClient.CallContext/16k", mux.CallContext, 16 << 10, 1},
	} {
		v, err := echo(m.span, m.call, m.size, m.callers)
		if err != nil {
			return pass, fmt.Errorf("%s: %w", m.metric, err)
		}
		l.set(m.metric, v)
	}
	for _, m := range []struct {
		metric string
		call   callFn
	}{{"rpcnet.mux_allocs_per_call", mux.CallContext}, {"rpcnet.classic_allocs_per_call", pool.CallContext}} {
		v, err := allocs(m.call)
		if err != nil {
			return pass, fmt.Errorf("%s: %w", m.metric, err)
		}
		l.set(m.metric, v)
	}
	return pass, nil
}

// rungWAL measures the log on the benchmark's temp directory — this
// machine's disk, whatever it is: the fsync-per-append cost the per-op TCP
// workload pays on every mutation, the group commit the batched one pays,
// the append without fsync, compaction, and recovery (the log's own replay
// and mds.Recover on top of it).
func (l *ladder) rungWAL(w workload, parent int32) error {
	if err := os.MkdirAll(l.o.TmpDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(l.o.TmpDir, "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	pass := l.log.open("wal pass", parent)
	defer l.log.close(pass)
	rec := func(i int) wal.Record {
		return wal.Record{Op: wal.OpCreate, Path: trace.PathFor(i%traceTIF, uint64(w.Files+i))}
	}

	durable, _, err := wal.Open(filepath.Join(dir, "always"), wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return err
	}
	defer durable.Close()
	var total int64
	for i := 0; i < l.sz.Fsyncs && err == nil; i++ {
		total += l.log.timed("wal.Log.Append/always", pass, i, 1, func() { err = durable.Append(rec(i)) })
	}
	if err != nil {
		return err
	}
	l.set("wal.append_ns.always", float64(total)/float64(l.sz.Fsyncs))
	const group = 128
	groups := max(l.sz.Fsyncs/10, 3)
	vec := make([]wal.Record, group)
	total = 0
	for g := 0; g < groups && err == nil; g++ {
		for i := range vec {
			vec[i] = rec(l.sz.Fsyncs + g*group + i)
		}
		total += l.log.timed("wal.Log.Append/batch128", pass, g*group, 1, func() { err = durable.Append(vec...) })
	}
	if err != nil {
		return err
	}
	l.set("wal.append_ns_per_rec.batch128", float64(total)/float64(groups*group))
	// Compaction with a state blob the size of one server's snapshot.
	state := make([]byte, max(int(l.vals["mds.snapshot_bytes_per_file"])*w.Files/w.NumMDS, 1<<10))
	const snaps = 5
	total = 0
	for i := 0; i < snaps && err == nil; i++ {
		total += l.log.timed("wal.Log.Snapshot", pass, i, 1, func() { err = durable.Snapshot(state) })
	}
	if err != nil {
		return err
	}
	l.set("wal.snapshot_ns", float64(total)/snaps)

	lazyDir := filepath.Join(dir, "never")
	opts := wal.Options{Sync: wal.SyncNever}
	lazy, _, err := wal.Open(lazyDir, opts)
	if err != nil {
		return err
	}
	l.set("wal.append_ns.never", l.batches("wal.Log.Append/never", pass, l.sz.WALRecords, func(lo, hi int) {
		for i := lo; i < hi && err == nil; i++ {
			err = lazy.Append(rec(i))
		}
	}))
	if cerr := lazy.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	var bytes int64
	segs, err := os.ReadDir(lazyDir)
	if err != nil {
		return err
	}
	for _, e := range segs {
		if info, err := e.Info(); err == nil {
			bytes += info.Size()
		}
	}
	records := float64(l.sz.WALRecords)
	l.set("wal.bytes_per_record", float64(bytes)/records)

	var reopened *wal.Log
	var got *wal.Recovery
	ns := l.log.timed("wal.Open/replay", pass, 0, 1, func() { reopened, got, err = wal.Open(lazyDir, opts) })
	if err != nil {
		return err
	}
	if len(got.Records) != l.sz.WALRecords {
		l.probs = append(l.probs, fmt.Sprintf("wal rung: reopened log replays %d records, appended %d", len(got.Records), l.sz.WALRecords))
	}
	l.set("wal.open_replay_ns_per_record", float64(ns)/records)
	if err := reopened.Close(); err != nil {
		return err
	}

	var node *mds.Node
	var info mds.RecoveryInfo
	ns = l.log.timed("mds.Recover", pass, 0, 1, func() { node, reopened, info, err = mds.Recover(0, nodeConfig(w), lazyDir, opts) })
	if err != nil {
		return err
	}
	if info.Replayed != l.sz.WALRecords || node.FileCount() != l.sz.WALRecords {
		l.probs = append(l.probs, fmt.Sprintf("wal rung: mds.Recover replayed %d records into %d files, log holds %d", info.Replayed, node.FileCount(), l.sz.WALRecords))
	}
	l.set("mds.recover_ns_per_record", float64(ns)/records)
	return reopened.Close()
}
