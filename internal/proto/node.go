package proto

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"ghba/internal/bloom"
	"ghba/internal/mds"
	"ghba/internal/rpcnet"
	"ghba/internal/wal"
)

// NodeServer is one prototype MDS daemon: an mds.Node behind a TCP server.
// The node mutex serializes request processing, so concurrent load produces
// genuine queueing at hot servers — the effect Fig 14 measures. A mutation
// batch holds it only to apply; its WAL append and fsync run under logMu, so
// reads and heartbeats never wait for the disk. It guards request handling
// only, not the node: the node synchronizes its own store and filters, so
// the coordinator's in-process reads and bulk loads (through mds.Fleet) do
// not take it.
type NodeServer struct {
	id  int
	srv *rpcnet.Server

	// logMu orders the daemon's durable history, and is taken before mu. A
	// mutation batch holds it from the incarnation check through the append
	// and fsync, the apply and any compaction; serve, snapshotNow,
	// Shutdown, Close and Kill take it first. So a snapshot never retires
	// a record that was logged but not yet applied.
	logMu sync.Mutex

	mu   sync.Mutex
	node *mds.Node

	// qbuf is the daemon's reusable hit buffer for digest queries; handle
	// holds mu for the whole request, so one buffer per daemon suffices
	// (appendHits copies before the buffer is reused).
	qbuf []int

	// residentLimit is the number of replicas that fit in RAM; when the
	// node holds more, queries against the replica array pay diskPenalty —
	// the prototype's stand-in for the disk accesses a spilled Bloom
	// filter array incurs on real hardware.
	residentLimit int
	diskPenalty   time.Duration

	// wal, when non-nil, makes the daemon durable: every mutating RPC
	// appends its records before applying them (write-ahead), and every
	// snapshotEvery records the log compacts into a snapshot. Appends,
	// snapshots and closing happen under logMu; the heartbeat reads its
	// record count under mu alone (the count takes no lock).
	wal           *wal.Log
	snapshotEvery uint64

	// incarnation is the coordinator incarnation this instance serves
	// (Cluster.incarnation): a mutation batch claimed against another is
	// refused. RestartMDS sets it on a recovered daemon before anyone can
	// reach it. Guarded by logMu.
	incarnation uint64

	// afterAppend, when set, runs after a mutation batch's append and
	// before its apply, with logMu held; tests park a batch there.
	afterAppend func()
}

// NodeServerOptions configures one daemon beyond its mds.Node state.
type NodeServerOptions struct {
	// ResidentReplicaLimit is how many replicas fit in RAM; ≤ 0 means
	// everything fits.
	ResidentReplicaLimit int
	// DiskPenalty is the emulated disk cost per query against an over-RAM
	// replica array.
	DiskPenalty time.Duration
	// WAL, when non-nil, is the daemon's open write-ahead log (typically
	// the one mds.Recover handed back). Mutating RPCs append to it before
	// applying; Shutdown compacts and closes it.
	WAL *wal.Log
	// SnapshotEvery is the WAL record count between snapshot compactions.
	// Zero selects 4096; negative disables automatic compaction (Shutdown
	// still snapshots). Ignored without a WAL.
	SnapshotEvery int
}

// StartNode launches a daemon for the given node on addr ("127.0.0.1:0"
// for tests).
func StartNode(node *mds.Node, addr string, opts NodeServerOptions) (*NodeServer, error) {
	snapEvery := uint64(0)
	if opts.WAL != nil {
		switch {
		case opts.SnapshotEvery == 0:
			snapEvery = 4096
		case opts.SnapshotEvery > 0:
			snapEvery = uint64(opts.SnapshotEvery)
		}
	}
	ns := &NodeServer{
		id:            node.ID(),
		node:          node,
		residentLimit: opts.ResidentReplicaLimit,
		diskPenalty:   opts.DiskPenalty,
		wal:           opts.WAL,
		snapshotEvery: snapEvery,
	}
	srv, err := rpcnet.Serve(addr, ns.handle)
	if err != nil {
		return nil, fmt.Errorf("proto: starting MDS %d: %w", node.ID(), err)
	}
	ns.srv = srv
	return ns, nil
}

// Addr returns the daemon's listen address.
func (ns *NodeServer) Addr() string { return ns.srv.Addr() }

// Close shuts the daemon down: the server stops (in-flight handlers
// finish) and the WAL, if any, syncs and closes. No final snapshot is
// taken — recovery replays the log tail.
func (ns *NodeServer) Close() {
	ns.srv.Close()
	ns.logMu.Lock()
	defer ns.logMu.Unlock()
	if ns.wal != nil {
		_ = ns.wal.Close()
	}
}

// Kill crashes the daemon: connections drop immediately and the WAL is
// abandoned without a final sync — the on-disk state a kill -9 leaves
// behind (modulo the page cache, which an in-process crash cannot drop).
// mds.Recover is the only way back.
func (ns *NodeServer) Kill() {
	ns.srv.Close()
	ns.logMu.Lock()
	defer ns.logMu.Unlock()
	if ns.wal != nil {
		_ = ns.wal.Abandon()
	}
}

// Shutdown drains the daemon cleanly: the listener closes, in-flight
// requests finish (bounded by timeout), a final snapshot compacts the WAL,
// and the log closes. On drain timeout the WAL is left as-is — a wedged
// handler may hold the daemon's locks, and recovery replays the tail anyway.
func (ns *NodeServer) Shutdown(timeout time.Duration) error {
	if err := ns.srv.Drain(timeout); err != nil {
		return err
	}
	ns.logMu.Lock()
	defer ns.logMu.Unlock()
	if ns.wal == nil {
		return nil
	}
	return errors.Join(ns.snapshot(), ns.wal.Close())
}

// snapshotNow forces a WAL compaction outside the usual cadence; bulk
// loads use it to make direct (unlogged) writes durable. A no-op without
// a WAL.
func (ns *NodeServer) snapshotNow() error {
	ns.logMu.Lock()
	defer ns.logMu.Unlock()
	return ns.snapshot()
}

// snapshot compacts the WAL into a snapshot of the node, read under mu.
// Caller holds logMu, so every logged record is already applied.
func (ns *NodeServer) snapshot() error {
	if ns.wal == nil {
		return nil
	}
	ns.mu.Lock()
	state, err := ns.node.MarshalSnapshot()
	ns.mu.Unlock()
	if err != nil {
		return err
	}
	return ns.wal.Snapshot(state)
}

// maybeCompact snapshots once the record count crosses the cadence. Caller
// holds logMu, after the mutation applied, so the snapshot always includes
// the records it retires.
func (ns *NodeServer) maybeCompact() error {
	if ns.wal == nil || ns.snapshotEvery == 0 || ns.wal.RecordsSinceSnapshot() < ns.snapshotEvery {
		return nil
	}
	return ns.snapshot()
}

// serve sets the coordinator incarnation the daemon accepts mutations for.
func (ns *NodeServer) serve(incarnation uint64) {
	ns.logMu.Lock()
	defer ns.logMu.Unlock()
	ns.incarnation = incarnation
}

// spilledSleep emulates disk accesses for the over-RAM replica fraction.
// Called with the mutex held so the penalty occupies the server, queueing
// concurrent requests behind it exactly as a blocked disk read would.
func (ns *NodeServer) spilledSleep() {
	if ns.residentLimit <= 0 || ns.diskPenalty <= 0 {
		return
	}
	total := ns.node.ReplicaCount()
	if total <= ns.residentLimit {
		return
	}
	frac := float64(total-ns.residentLimit) / float64(total)
	time.Sleep(time.Duration(frac * float64(ns.diskPenalty)))
}

// handle dispatches one RPC. A mutation batch goes to mutate, which holds
// mu only to apply; every other request holds mu throughout.
func (ns *NodeServer) handle(msgType uint8, payload []byte) ([]byte, error) {
	if msgType == opMutateBatch {
		return ns.mutate(payload)
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	switch msgType {
	case opInstallReplica:
		origin, body, err := decodeOriginPayload(payload)
		if err != nil {
			return nil, err
		}
		var f bloom.Filter
		if err := f.UnmarshalBinary(body); err != nil {
			return nil, fmt.Errorf("proto: bad replica payload: %w", err)
		}
		ns.node.InstallReplica(origin, &f)
		return nil, nil

	case opDropReplica:
		origin, _, err := decodeOriginPayload(payload)
		if err != nil {
			return nil, err
		}
		f := ns.node.DropReplica(origin)
		if f == nil {
			return nil, fmt.Errorf("proto: MDS %d holds no replica of %d", ns.id, origin)
		}
		return f.MarshalBinary()

	case opShipFilter:
		return ns.node.Ship().MarshalBinary()

	case opFetchShipped:
		return ns.node.Shipped().MarshalBinary()

	case opObserveBatch:
		obs, err := decodeObservations(payload)
		if err != nil {
			return nil, err
		}
		for _, o := range obs {
			d := bloom.NewDigestString(o.path)
			ns.node.ObserveHitDigest(&d, o.home)
		}
		return nil, nil

	case opLookupBatch:
		// The entry leg of a lookup: each path is hashed once — its L1
		// generations and every L2 replica replay the digest's probe
		// positions — and the L1 and L2 hits of the whole vector travel in one
		// response, so the per-frame costs (syscall, header, lock) amortize
		// across it.
		paths, err := decodePaths(payload)
		if err != nil {
			return nil, err
		}
		var out []byte
		for _, p := range paths {
			d := bloom.NewDigestString(p)
			l1 := ns.node.QueryL1Digest(&d, ns.qbuf)
			out = appendHits(out, l1.Hits)
			ns.qbuf = l1.Hits
			ns.spilledSleep()
			l2 := ns.node.QueryL2Digest(&d, ns.qbuf)
			out = appendHits(out, l2.Hits)
			ns.qbuf = l2.Hits
		}
		return out, nil

	case opQueryMemberBatch:
		paths, err := decodePaths(payload)
		if err != nil {
			return nil, err
		}
		var out []byte
		for _, p := range paths {
			d := bloom.NewDigestString(p)
			ns.spilledSleep()
			l2 := ns.node.QueryL2Digest(&d, ns.qbuf)
			out = appendHits(out, l2.Hits)
			ns.qbuf = l2.Hits
		}
		return out, nil

	case opVerifyBatch:
		paths, err := decodePaths(payload)
		if err != nil {
			return nil, err
		}
		answers := make([]bool, len(paths))
		for i, p := range paths {
			answers[i] = ns.node.HasFile(p)
		}
		return encodeBools(answers), nil

	case opHasLocalBatch:
		paths, err := decodePaths(payload)
		if err != nil {
			return nil, err
		}
		answers := make([]bool, len(paths))
		for i, p := range paths {
			d := bloom.NewDigestString(p)
			// Positive filter answer → authoritative store check ("disk").
			if ns.node.LocalPositiveDigest(&d) {
				answers[i] = ns.node.HasFile(p)
			}
		}
		return encodeBools(answers), nil

	case opHeartbeat:
		var walRecs uint64
		if ns.wal != nil {
			walRecs = ns.wal.RecordsSinceSnapshot()
		}
		return encodeHeartbeatResp(HeartbeatInfo{
			ID:         ns.id,
			Files:      uint64(ns.node.FileCount()),
			WALRecords: walRecs,
		}), nil

	default:
		return nil, fmt.Errorf("proto: unknown message type %d", msgType)
	}
}

// mutate serves one mutation batch under logMu: the incarnation check, one
// append and one fsync for the whole vector, the apply under mu, and the
// compaction the batch may trigger.
func (ns *NodeServer) mutate(payload []byte) ([]byte, error) {
	incarnation, recs, err := decodeMutations(payload)
	if err != nil {
		return nil, err
	}
	ns.logMu.Lock()
	defer ns.logMu.Unlock()
	if incarnation != ns.incarnation {
		// Claimed before this instance's recovery was reconciled with
		// ground truth, which already settled the claims against what
		// the instance recovered: applying them now would undo that.
		return nil, fmt.Errorf("proto: MDS %d serves incarnation %d, the batch was claimed under %d", ns.id, ns.incarnation, incarnation)
	}
	// Logged before the existence answers are known: replaying a delete of
	// an absent path is a no-op, so the record is harmless either way. A
	// batch whose append fails is refused wholesale.
	if ns.wal != nil {
		if err := ns.wal.Append(recs...); err != nil {
			return nil, err
		}
	}
	if ns.afterAppend != nil {
		ns.afterAppend()
	}
	return ns.apply(recs), ns.maybeCompact()
}

// apply applies a logged mutation batch to the node under mu and returns
// its answer: an existence byte per record, then the crossed and rebuilt
// flags.
func (ns *NodeServer) apply(recs []wal.Record) []byte {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	resp := make([]byte, len(recs)+2)
	created, rebuilt := false, false
	for i, r := range recs {
		if r.Op == wal.OpCreate {
			ns.node.AddFile(r.Path)
			resp[i], created = 1, true
		} else if ns.node.DeleteFile(r.Path) {
			resp[i] = 1
			if ns.node.RebuildIfStale(mds.RebuildDeleteThreshold) {
				rebuilt = true
			}
		}
	}
	// The mutation and the threshold check happen in one request, so the
	// coordinator learns whether to feed the ship queue without a second
	// round trip — the networked twin of core.noteMutationLocked. One
	// answer per flag serves the whole batch: the ship queue coalesces by
	// origin anyway, so per-path flags would collapse to the same Note.
	if created && ns.node.NeedsShip(mds.DefaultUpdateThresholdBits) {
		resp[len(recs)] = 1
	}
	if rebuilt {
		resp[len(recs)+1] = 1
	}
	return resp
}
