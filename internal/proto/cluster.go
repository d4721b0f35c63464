package proto

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ghba/internal/group"
	"ghba/internal/homeindex"
	"ghba/internal/mds"
	"ghba/internal/metrics"
	"ghba/internal/rpcnet"
	"ghba/internal/shipq"
	"ghba/internal/trace"
	"ghba/internal/wal"
)

// DefaultCallTimeout is the per-RPC deadline applied when Options leaves
// CallTimeout zero: long enough for megabyte filter ships on loopback,
// short enough that a hung daemon fails a lookup instead of wedging the
// coordinator.
const DefaultCallTimeout = 10 * time.Second

// maxPathBytes is the longest path the wire carries: path vectors, mutation
// batches and observation batches all frame a path's length as a uint16.
const maxPathBytes = math.MaxUint16

// checkPaths refuses a path the wire cannot frame. Every entry point that
// takes paths from a caller runs it before any RNG draw, claim or RPC, so a
// refused call leaves the cluster as it found it.
func checkPaths(paths ...string) error {
	for _, p := range paths {
		if len(p) > maxPathBytes {
			return fmt.Errorf("proto: path of %d bytes exceeds the wire limit of %d bytes", len(p), maxPathBytes)
		}
	}
	return nil
}

// Options configures a prototype cluster.
type Options struct {
	// N is the number of MDS daemons.
	N int
	// M is the maximum group size (the paper's prototype uses M=7 on its
	// 60-node cluster). 1 is the HBA baseline: groups of one, so every
	// daemon mirrors every other and L3 has nobody to ask.
	M int
	// Node sizes each daemon's filter structures.
	Node mds.Config
	// ResidentReplicaLimit is how many replicas fit in one daemon's RAM;
	// holdings beyond it pay DiskPenalty per query. Zero disables.
	ResidentReplicaLimit int
	// DiskPenalty is the emulated disk cost for over-RAM replica arrays.
	DiskPenalty time.Duration
	// Seed drives placement and entry selection.
	Seed int64
	// CallTimeout is the per-RPC deadline. Zero selects
	// DefaultCallTimeout; negative disables deadlines entirely.
	CallTimeout time.Duration
	// ShipBatch is the coalescing ship queue's drain batch: threshold
	// crossings absorbed before dirty origins' replicas ship over the
	// wire. 0 or 1 ships at every crossing (the paper's protocol).
	ShipBatch int
	// ObserveBatch is how many confirmed lookups accumulate before the L1
	// observation batch is multicast to every daemon. Zero selects 64; 1
	// multicasts immediately, matching the simulator's per-lookup L1
	// learning (the cross-backend equivalence tests rely on this).
	ObserveBatch int
	// DataDir, when non-empty, makes every daemon durable: MDS i write-ahead
	// logs its mutations under DataDir/mds-<i> and compacts the log into
	// snapshots, so KillMDS/RestartMDS (and a standalone cmd/mdsd -data)
	// can crash and recover it. Start refuses directories with existing
	// state — the coordinator's ground-truth home index cannot be rebuilt
	// from per-daemon logs, so cold recovery belongs to cmd/mdsd, and
	// in-lifetime recovery to RestartMDS.
	DataDir string
	// WALSync selects the fsync policy for daemon WALs: "always" (default),
	// "interval" or "never". See wal.ParseSyncPolicy.
	WALSync string
	// SnapshotEvery is the WAL record count between snapshot compactions at
	// each daemon. Zero selects 4096; negative disables automatic
	// compaction.
	SnapshotEvery int
}

func (o *Options) validate() error {
	if o.N < 1 {
		return fmt.Errorf("proto: N must be ≥ 1, got %d", o.N)
	}
	if o.M < 1 {
		return fmt.Errorf("proto: M must be ≥ 1, got %d", o.M)
	}
	if _, err := wal.ParseSyncPolicy(o.WALSync); err != nil {
		return fmt.Errorf("proto: %w", err)
	}
	return nil
}

// walOptions maps the cluster's durability knobs onto one daemon's WAL.
// Options.validate vetted WALSync, so the parse cannot fail here.
func (o *Options) walOptions() wal.Options {
	pol, _ := wal.ParseSyncPolicy(o.WALSync)
	return wal.Options{Sync: pol}
}

// walDir is the WAL directory of one daemon under DataDir.
func (o *Options) walDir(id int) string {
	return filepath.Join(o.DataDir, fmt.Sprintf("mds-%d", id))
}

// Cluster is a running prototype: N daemons plus the coordinator state that
// drives queries, mutations and reconfiguration against them.
//
// The coordinator follows the same discipline as the simulator's core
// engine: membership and the group layout are one published mds.Fleet, the
// coordinator's only membership record, which lookups, replica ships,
// NumMDS, MDSIDs and Layout read without a lock; mutation rounds are readers
// of the RWMutex that snapshot what they need and issue RPCs without holding
// it, and reconfiguration is the exclusive writer, which publishes the next
// fleet. Ground truth is the index core keeps too (internal/homeindex),
// striped over shard locks, so creates and deletes on different paths never
// contend on one lock. RPC connections are pooled per daemon (connSet), so
// concurrent operations against one daemon ride parallel sockets rather
// than serializing on a shared connection.
type Cluster struct {
	opts Options

	mu sync.RWMutex
	// servers records the daemons' lifecycle — the handles Close, Kill and
	// snapshots act on — not a second membership: a daemon is a member once
	// the fleet names it.
	servers map[int]*NodeServer
	nextID  int

	// fleet is the published immutable membership snapshot — the daemons'
	// nodes, read in process, and the group layout internal/group plans,
	// committed only after the RPCs that realize it succeeded (or, on
	// best-effort paths, amended by what failed). The query path navigates
	// it without touching mu: publishLocked swaps it in as the final step of
	// every membership mutation, so a lookup either sees the old consistent
	// topology or the new one, never a half-rebuilt one.
	fleet atomic.Pointer[mds.Fleet]

	// homes is the coordinator's ground truth of which daemon homes each
	// path: one 8-byte {tag, home} cell per file, a tag match confirmed by
	// the home daemon's store — the index core keeps, not a path-keyed map.
	// A cell moves only once its daemon has answered: a mutation round
	// inserts a create's cell, and drops a delete's, when the daemon's
	// mutate_batch reply says it applied. Until then the path sits in
	// flights, the in-flight table striped by homes' shards, which keeps
	// two rounds racing on one path apart and is empty at rest.
	homes   *homeindex.Index
	flights [homeindex.Shards]flightShard
	// incarnation counts, per daemon, the times ground truth was rewritten
	// around it — RestartMDS's reconcile, FailMDS's scrub. A mutation round
	// records it with its claims and sends it with the batch: a leg moves
	// cells only if it has not moved since, and a daemon refuses a batch
	// claimed against an incarnation it does not serve. Guarded by mu:
	// rounds read it shared, FailMDS and RestartMDS rewrite it exclusively.
	incarnation map[int]uint64
	// confirms counts the verify_batch RPCs creates sent to ask a daemon
	// whose cell shares the new path's tag whether it holds the path.
	confirms atomic.Uint64

	// ships coalesces XOR-delta threshold crossings per origin; shipStripes
	// serialize ships of the same origin so two racing shippers cannot
	// install an older snapshot over a newer one.
	ships       *shipq.Queue
	shipStripes [16]sync.Mutex

	conns *connSet

	// rng drives the serial Lookup/Apply paths' entry and placement draws;
	// parallel workers carry their own seeded RNGs and never touch it.
	rngMu sync.Mutex
	rng   *rand.Rand

	// pendingObs accumulates confirmed (path → home) mappings; every
	// obsBatch lookups the batch is multicast to all daemons, refreshing
	// their replicated LRU arrays the way HBA piggybacks LRU replica
	// updates.
	obsMu      sync.Mutex
	pendingObs []observation
	obsBatch   int

	tally        metrics.LevelTally
	replicaShips atomic.Uint64
	rpcByOp      [len(opNames)]atomic.Uint64
}

// caller is the per-daemon connection surface the coordinator drives. Every
// daemon's is an rpcnet.Pool; the interface stays as the seam a connSet
// entry can be wrapped at, so tests inject faults (a crash between the
// apply and the reply, a request delayed past a restart) without a daemon
// knowing.
type caller interface {
	CallContext(ctx context.Context, msgType uint8, payload []byte) ([]byte, error)
	Close()
}

// connSet owns the coordinator's per-daemon connection pools. It is
// deliberately independent of Cluster.mu so reconfiguration can issue RPCs
// to a daemon (including a half-joined newcomer) while holding the
// membership write lock.
type connSet struct {
	callTimeout time.Duration // ≤ 0 disables per-call deadlines

	mu    sync.Mutex
	conns map[int]caller
}

func newConnSet(callTimeout time.Duration) *connSet {
	return &connSet{callTimeout: callTimeout, conns: make(map[int]caller)}
}

// register creates (or replaces) the connection pool for a daemon.
func (cs *connSet) register(id int, addr string) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.conns == nil {
		return // closed
	}
	if old, ok := cs.conns[id]; ok {
		old.Close()
	}
	timeout := cs.callTimeout
	if timeout < 0 {
		timeout = 0
	}
	cs.conns[id] = rpcnet.NewPool(addr, rpcnet.PoolOptions{
		DialTimeout: timeout,
		CallTimeout: timeout,
	})
}

// unregister drops a daemon's connection (failed join, removal).
func (cs *connSet) unregister(id int) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if p, ok := cs.conns[id]; ok {
		p.Close()
		delete(cs.conns, id)
	}
}

func (cs *connSet) conn(id int) (caller, error) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	p, ok := cs.conns[id]
	if !ok {
		return nil, fmt.Errorf("proto: unknown MDS %d", id)
	}
	return p, nil
}

func (cs *connSet) closeAll() {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for _, p := range cs.conns {
		p.Close()
	}
	cs.conns = nil
}

// nodeServerOptions maps cluster options onto one daemon's.
func (o *Options) nodeServerOptions() NodeServerOptions {
	return NodeServerOptions{
		ResidentReplicaLimit: o.ResidentReplicaLimit,
		DiskPenalty:          o.DiskPenalty,
	}
}

// Start builds, populates and launches a prototype cluster on loopback
// ports. Callers must Close it.
func Start(opts Options) (*Cluster, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	callTimeout := opts.CallTimeout
	if callTimeout == 0 {
		callTimeout = DefaultCallTimeout
	}
	obsBatch := opts.ObserveBatch
	if obsBatch <= 0 {
		obsBatch = 64
	}
	c := &Cluster{
		opts:        opts,
		servers:     make(map[int]*NodeServer),
		homes:       homeindex.New(),
		incarnation: make(map[int]uint64),
		ships:       shipq.New(opts.ShipBatch),
		conns:       newConnSet(callTimeout),
		rng:         rand.New(rand.NewSource(opts.Seed)),
		obsBatch:    obsBatch,
		nextID:      opts.N,
	}
	for i := 0; i < opts.N; i++ {
		ns, _, err := c.launchNode(i)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.servers[i] = ns
		c.conns.register(i, ns.Addr())
	}
	// The layout is the simulator's — one planner — so a sim and a prototype
	// built from the same (N, M) agree on membership and placement. Initial
	// (empty) replicas are installed in process, before any measurement
	// traffic.
	c.publishLocked(group.NewLayout(opts.N, opts.M))
	c.fleet.Load().Seed()
	return c, nil
}

// launchNode builds and launches daemon id on a fresh loopback port. With
// DataDir set the daemon gets a write-ahead log; an id whose directory
// already holds state is refused, because only the recovery paths
// (RestartMDS in-lifetime, cmd/mdsd standalone) reconcile recovered files
// with the coordinator's ground-truth home index.
func (c *Cluster) launchNode(id int) (*NodeServer, mds.RecoveryInfo, error) {
	if c.opts.DataDir == "" {
		node, err := mds.NewNode(id, c.opts.Node)
		if err != nil {
			return nil, mds.RecoveryInfo{}, fmt.Errorf("proto: node %d: %w", id, err)
		}
		ns, err := StartNode(node, "127.0.0.1:0", c.opts.nodeServerOptions())
		return ns, mds.RecoveryInfo{}, err
	}
	ns, info, err := c.recoverNode(id)
	if err != nil {
		return nil, info, err
	}
	if info.Files > 0 || info.Replayed > 0 || info.SnapshotSeq > 0 {
		ns.Close()
		return nil, info, fmt.Errorf("proto: MDS %d: %s already holds state (snapshot seq %d, %d files); recover it with RestartMDS or cmd/mdsd instead of relaunching fresh",
			id, c.opts.walDir(id), info.SnapshotSeq, info.Files)
	}
	return ns, info, nil
}

// recoverNode rebuilds daemon id from its WAL directory and launches it on
// a fresh loopback port, leaving the log open for the daemon's appends.
func (c *Cluster) recoverNode(id int) (*NodeServer, mds.RecoveryInfo, error) {
	node, l, info, err := mds.Recover(id, c.opts.Node, c.opts.walDir(id), c.opts.walOptions())
	if err != nil {
		return nil, info, err
	}
	nso := c.opts.nodeServerOptions()
	nso.WAL = l
	nso.SnapshotEvery = c.opts.SnapshotEvery
	ns, err := StartNode(node, "127.0.0.1:0", nso)
	if err != nil {
		_ = l.Close()
		return nil, info, err
	}
	return ns, info, nil
}

// publishLocked freezes the daemons' nodes and layout into a fresh
// membership snapshot and publishes it for the lock-free query path. Callers
// must hold c.mu exclusively (or be pre-concurrency in Start).
func (c *Cluster) publishLocked(layout group.Layout) {
	nodes := make(map[int]*mds.Node, len(c.servers))
	for id, ns := range c.servers {
		nodes[id] = ns.node
	}
	c.fleet.Store(mds.NewFleet(nodes, layout))
}

// Layout returns the current group layout, an immutable value.
func (c *Cluster) Layout() group.Layout { return c.fleet.Load().Layout() }

// candidate returns the daemon one level's hit set nominates for verify: the
// sole hit, provided it is still a live member. Failover leaves traces of a
// removed daemon in L1 generations and replica bits until caches age out, and
// a verify sent to a dead member would fail the lookup.
func candidate(live, hits []int) (int, bool) {
	if len(hits) != 1 || !memberOf(live, hits[0]) {
		return -1, false
	}
	return hits[0], true
}

// memberOf reports whether id is in a sorted membership snapshot.
func memberOf(ids []int, id int) bool {
	i := sort.SearchInts(ids, id)
	return i < len(ids) && ids[i] == id
}

// NumMDS returns the daemon count.
func (c *Cluster) NumMDS() int { return len(c.fleet.Load().IDs()) }

// MDSIDs returns the current daemon IDs in ascending order.
func (c *Cluster) MDSIDs() []int {
	return slices.Clone(c.fleet.Load().IDs())
}

// FileCount returns the number of files in the namespace: the home index's
// cells, which count every file whose mutation round has landed.
func (c *Cluster) FileCount() int {
	return c.homes.Len()
}

// CheckInvariants verifies core.Cluster.CheckInvariants' contract on the
// daemons themselves, with the same check (mds.Fleet.Check): the layout is
// sound, every replica array holds exactly what the layout records, bit for
// bit what its origin last shipped, and every path a daemon stores resolves
// through the home index to that daemon, which holds no cell a stored path
// does not account for — so no file is homed on a non-member. It reads every
// daemon's node in process and takes the membership lock exclusively, which
// excludes reconfiguration and every mutation round's claims and resolution
// but not its RPCs: it is exact at a quiescent point, where tests call it.
func (c *Cluster) CheckInvariants() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.fleet.Load().Check(c.homes); err != nil {
		return fmt.Errorf("proto: %w", err)
	}
	return nil
}

// RPCCounts returns the cumulative RPCs issued per message type, keyed by
// wire name — the per-opcode evidence behind the benchmark's
// proto.rpcs_per_op.* metrics. Types never issued are omitted.
func (c *Cluster) RPCCounts() map[string]uint64 {
	out := make(map[string]uint64)
	for op := range c.rpcByOp {
		if n := c.rpcByOp[op].Load(); n > 0 {
			out[opName(uint8(op))] = n
		}
	}
	return out
}

// ResetRPCCounts zeroes the per-opcode counters between experiment phases.
func (c *Cluster) ResetRPCCounts() {
	for op := range c.rpcByOp {
		c.rpcByOp[op].Store(0)
	}
}

// ReplicaUpdates returns the number of replica-install messages the
// XOR-delta ship path has sent — the traffic the coalescing queue
// amortizes (initial seeding is direct and uncounted).
func (c *Cluster) ReplicaUpdates() uint64 { return c.replicaShips.Load() }

// LevelCounts returns the cumulative number of lookups served at each level
// (indices 1–4; index 0 unused).
func (c *Cluster) LevelCounts() [5]uint64 { return c.tally.Counts() }

// Close shuts down all daemons and connections.
func (c *Cluster) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.conns.closeAll()
	for _, s := range c.servers {
		s.Close()
	}
}

// call issues one counted RPC through the daemon's connection pool. It makes
// exactly one attempt: a restarted daemon listens on a fresh port behind a
// fresh pool, so re-sending on the pool looked up here could never reach it.
func (c *Cluster) call(ctx context.Context, id int, msgType uint8, payload []byte) ([]byte, error) {
	conn, err := c.conns.conn(id)
	if err != nil {
		return nil, err
	}
	if int(msgType) < len(c.rpcByOp) {
		c.rpcByOp[msgType].Add(1)
	}
	return conn.CallContext(ctx, msgType, payload)
}

// Heartbeat probes daemon id for liveness, returning its health report.
// The failure detector drives this on a cadence; it is also a cheap way
// for tests to ask a daemon how much un-snapshotted WAL it carries.
func (c *Cluster) Heartbeat(ctx context.Context, id int) (HeartbeatInfo, error) {
	resp, err := c.call(ctx, id, opHeartbeat, nil)
	if err != nil {
		return HeartbeatInfo{}, err
	}
	info, err := decodeHeartbeatResp(resp)
	if err != nil {
		return HeartbeatInfo{}, err
	}
	if info.ID != id {
		return info, fmt.Errorf("proto: heartbeat to MDS %d answered by MDS %d", id, info.ID)
	}
	return info, nil
}

// Populate homes paths at random daemons (in process, unmeasured) and
// refreshes replicas — the bulk-load path behind the Backend's CreateAll. It
// is an exclusive writer against the coordinator's membership, and draws each
// home from the RNG under rngMu alone, as a serial Apply does; note
// that a lookup which snapshotted membership before the lock was taken may
// still have RPCs in flight while daemon stores update — each node
// synchronizes its own store and filters, so such a lookup sees each file
// either before or after its insert, never a torn one. A path the wire cannot
// frame refuses the whole load before anything is homed. Otherwise the error
// is the daemons' snapshot failures, joined and named by daemon: the load
// itself is in memory and served either way, but a daemon named here would
// not recover it.
func (c *Cluster) Populate(paths []string) error {
	if err := checkPaths(paths...); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	f := c.fleet.Load()
	for _, p := range paths {
		c.rngMu.Lock()
		home := f.Draw(c.rng)
		c.rngMu.Unlock()
		// A path the namespace already holds keeps its home (the draw is
		// spent either way), as in core.Populate; so does one a mutation
		// round holds in flight, which settles it.
		if c.inFlight(p) != nil {
			continue
		}
		node := f.Node(home)
		c.homes.PutIfAbsentThen(p, home, f.Holds, func() { node.AddFile(p) })
	}
	// The bulk-load shortcut around ship: in process and uncounted, and
	// nothing is left to coalesce.
	f.Seed()
	c.ships.Drain()
	// Bulk loads bypass the WAL (logging-and-fsyncing per direct write would
	// make population crawl); one snapshot per daemon captures the whole
	// load atomically instead. One daemon's full disk does not cost the
	// others their snapshots.
	if c.opts.DataDir == "" {
		return nil
	}
	var errs []error
	for _, id := range f.IDs() {
		if err := c.servers[id].snapshotNow(); err != nil {
			errs = append(errs, fmt.Errorf("proto: snapshot of MDS %d after populate: %w", id, err))
		}
	}
	return errors.Join(errs...)
}

// HomeOf returns the ground-truth home (-1 when absent): the daemon of the
// path's tag whose store holds it, asked in process through the published
// membership snapshot, so it costs no RPC and takes no lock. A file whose
// mutation round is still in flight answers as its stores do.
func (c *Cluster) HomeOf(path string) int {
	home, ok := c.homes.Get(path, c.fleet.Load().Holds)
	if !ok {
		return -1
	}
	return home
}

// LookupResult reports one prototype operation; Latency is wall clock and
// ServerTime stays zero.
type LookupResult = trace.Result

// Lookup resolves path through real RPCs, starting at a random entry MDS
// drawn from the cluster's own RNG. Safe for concurrent use, though
// concurrent callers contend on that RNG — parallel drivers should prefer
// LookupWith with per-worker RNGs.
func (c *Cluster) Lookup(ctx context.Context, path string) (LookupResult, error) {
	return c.applyRecord(ctx, lockedRand{c}, trace.Record{Op: trace.OpStat, Path: path})
}

// LookupWith resolves path with the entry MDS drawn from the caller's RNG,
// the prototype's reproducible-concurrency hook: each worker owns an RNG,
// so runs are deterministic for a fixed (seed, paths, workers) triple.
func (c *Cluster) LookupWith(ctx context.Context, rng *rand.Rand, path string) (LookupResult, error) {
	return c.applyRecord(ctx, rng, trace.Record{Op: trace.OpStat, Path: path})
}

// lookupVia resolves path with the given entry MDS: the vector walk over a
// vector of one.
func (c *Cluster) lookupVia(ctx context.Context, path string, entry int) (LookupResult, error) {
	if err := checkPaths(path); err != nil {
		return LookupResult{}, err
	}
	res, err := c.lookupVector(ctx, []string{path}, []int{entry})
	if res == nil {
		return LookupResult{}, err
	}
	return res[0], err
}

// observeMany bulk-appends a vector's worth of L1 learning records and
// multicasts at most once: however far past ObserveBatch the append lands,
// the whole accumulation flushes as a single batch to every daemon in ids,
// refreshing their replicated LRU arrays, so a large lookup vector pays one
// multicast instead of one per ObserveBatch lookups. A daemon that fails its
// delivery does not cost the others theirs: the batch still reaches every
// reachable daemon and the failures are reported joined.
func (c *Cluster) observeMany(ctx context.Context, ids []int, obs []observation) error {
	if len(obs) == 0 {
		return nil
	}
	c.obsMu.Lock()
	c.pendingObs = append(c.pendingObs, obs...)
	if len(c.pendingObs) < c.obsBatch {
		c.obsMu.Unlock()
		return nil
	}
	batch := c.pendingObs
	c.pendingObs = nil
	c.obsMu.Unlock()
	payload := encodeObservations(batch)
	// Multicast in parallel, like the query fan-outs: the flushing lookup
	// pays one round-trip time, not N sequential ones.
	errs := make([]error, len(ids))
	fanOut(len(ids), func(k int) {
		if _, err := c.call(ctx, ids[k], opObserveBatch, payload); err != nil {
			errs[k] = fmt.Errorf("observe batch to MDS %d: %w", ids[k], err)
		}
	})
	return errors.Join(errs...)
}
