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
// genuine queueing at hot servers — the effect Fig 14 measures.
type NodeServer struct {
	id  int
	srv *rpcnet.Server

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
	// snapshotEvery records the log compacts into a snapshot. Guarded by mu
	// like the node itself — handle holds mu for the whole request, so the
	// append and the apply are atomic with respect to snapshots.
	wal           *wal.Log
	snapshotEvery uint64

	// incarnation is the coordinator incarnation this instance serves
	// (Cluster.incarnation): a mutation batch claimed against another is
	// refused. RestartMDS sets it on a recovered daemon before anyone can
	// reach it. Guarded by mu.
	incarnation uint64
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
	ns.mu.Lock()
	defer ns.mu.Unlock()
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
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if ns.wal != nil {
		_ = ns.wal.Abandon()
	}
}

// Shutdown drains the daemon cleanly: the listener closes, in-flight
// requests finish (bounded by timeout), a final snapshot compacts the WAL,
// and the log closes. On drain timeout the WAL is left as-is — a wedged
// handler may hold the daemon mutex, and recovery replays the tail anyway.
func (ns *NodeServer) Shutdown(timeout time.Duration) error {
	if err := ns.srv.Drain(timeout); err != nil {
		return err
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if ns.wal == nil {
		return nil
	}
	return errors.Join(ns.snapshotLocked(), ns.wal.Close())
}

// SnapshotNow forces a WAL compaction outside the usual cadence; bulk
// loads use it to make direct (unlogged) writes durable. A no-op without
// a WAL.
func (ns *NodeServer) SnapshotNow() error {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.snapshotLocked()
}

func (ns *NodeServer) snapshotLocked() error {
	if ns.wal == nil {
		return nil
	}
	state, err := ns.node.MarshalSnapshot()
	if err != nil {
		return err
	}
	return ns.wal.Snapshot(state)
}

// logMutation appends records ahead of applying them (write-ahead: a
// mutation whose append fails is refused wholesale). Called with mu held.
func (ns *NodeServer) logMutation(recs ...wal.Record) error {
	if ns.wal == nil {
		return nil
	}
	return ns.wal.Append(recs...)
}

// maybeCompactLocked snapshots once the record count crosses the cadence.
// Called with mu held, after the mutation applied, so the snapshot always
// includes the records it retires.
func (ns *NodeServer) maybeCompactLocked() error {
	if ns.wal == nil || ns.snapshotEvery == 0 || ns.wal.RecordsSinceSnapshot() < ns.snapshotEvery {
		return nil
	}
	return ns.snapshotLocked()
}

// serve sets the coordinator incarnation the daemon accepts mutations for.
func (ns *NodeServer) serve(incarnation uint64) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	ns.incarnation = incarnation
}

// AddFileDirect homes a file without the RPC path; used for bulk population
// before measurement starts.
func (ns *NodeServer) AddFileDirect(path string) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	ns.node.AddFile(path)
}

// holds reports, without the RPC path, whether the daemon stores path: the
// coordinator's in-process confirmation of a home-index cell.
func (ns *NodeServer) holds(path string) bool {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.node.HasFile(path)
}

// InstallReplicaDirect installs a replica without RPC, for initial seeding.
func (ns *NodeServer) InstallReplicaDirect(origin int, f *bloom.Filter) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	ns.node.InstallReplica(origin, f)
}

// ShipDirect snapshots the node's local filter, for initial seeding.
func (ns *NodeServer) ShipDirect() *bloom.Filter {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.node.Ship()
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

// handle dispatches one RPC.
func (ns *NodeServer) handle(msgType uint8, payload []byte) ([]byte, error) {
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

	case opMutateBatch:
		incarnation, recs, err := decodeMutations(payload)
		if err != nil {
			return nil, err
		}
		if incarnation != ns.incarnation {
			// Claimed before this instance's recovery was reconciled with
			// ground truth, which already settled the claims against what
			// the instance recovered: applying them now would undo that.
			return nil, fmt.Errorf("proto: MDS %d serves incarnation %d, the batch was claimed under %d", ns.id, ns.incarnation, incarnation)
		}
		// One append, one fsync, for the whole vector. Logged before the
		// existence answers are known: replaying a delete of an absent path is
		// a no-op, so the record is harmless either way.
		if err := ns.logMutation(recs...); err != nil {
			return nil, err
		}
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
		return resp, ns.maybeCompactLocked()

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
