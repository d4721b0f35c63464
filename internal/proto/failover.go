package proto

import (
	"context"
	"fmt"
	"sort"

	"ghba/internal/group"
	"ghba/internal/mds"
	"ghba/internal/wal"
)

// FailoverReport summarizes one daemon removal.
type FailoverReport struct {
	// ID is the removed daemon.
	ID int
	// FilesLost is how many ground-truth files were homed at the dead
	// daemon; they are scrubbed from the namespace (and recoverable via
	// RestartMDS when the cluster runs with a DataDir).
	FilesLost int
}

// FailMDS removes a (presumed dead) daemon from the running prototype: its
// server and connection shut down, the files it homed leave the ground-truth
// namespace, and the survivors run group.Layout.Fail's plan — every other
// group drops its replica of the dead daemon, its own group fetches again
// what it held (each survivor receiving what the origin last shipped), and
// groups merge while a union fits within M, exactly as in the simulator. The
// heartbeat detector invokes this automatically on a Dead verdict; tests and
// operators may call it directly. The survivor-side RPCs are best-effort
// (see runPlan).
func (c *Cluster) FailMDS(ctx context.Context, id int) (FailoverReport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ns, ok := c.servers[id]
	if !ok {
		return FailoverReport{}, fmt.Errorf("proto: unknown MDS %d", id)
	}
	if len(c.servers) == 1 {
		return FailoverReport{}, fmt.Errorf("proto: refusing to fail MDS %d: it is the last daemon", id)
	}
	rep := FailoverReport{ID: id}

	// Make the presumption true (Kill is idempotent on an already-dead
	// daemon) and stop routing to it before any survivor work.
	ns.Kill()
	delete(c.servers, id)
	c.conns.unregister(id)
	c.ships.Forget(id)

	next, plan := c.fleet.Load().Layout().Fail(id)
	next, _ = c.runPlan(ctx, plan, next, false)
	c.publishLocked(next)

	// The scrub ends the daemon's incarnation: a mutation leg to it landing
	// after this point must not put a cell back onto a removed daemon.
	rep.FilesLost = c.homes.Scrub(id)
	c.incarnation[id]++
	return rep, nil
}

// KillMDS crashes daemon id in place: its connections drop and its WAL is
// abandoned mid-stream, but membership, groups and the home index keep
// naming it — exactly what a kill -9 looks like to the rest of the
// cluster. RPCs to it fail until RestartMDS recovers it or the failure
// detector declares it dead and fails it over.
func (c *Cluster) KillMDS(id int) error {
	c.mu.RLock()
	ns, ok := c.servers[id]
	c.mu.RUnlock()
	if !ok {
		return fmt.Errorf("proto: unknown MDS %d", id)
	}
	ns.Kill()
	return nil
}

// RestartReport summarizes one daemon recovery.
type RestartReport struct {
	// ID is the recovered daemon; Addr its new listen address.
	ID   int
	Addr string
	// Recovery reports what the WAL reconstruction found.
	Recovery mds.RecoveryInfo
	// Rejoined reports the daemon had been failed over, so it re-entered
	// membership through the join protocol rather than in place.
	Rejoined bool
	// FilesReclaimed counts recovered files re-claimed into the namespace
	// (their ground truth had been scrubbed by failover).
	FilesReclaimed int
	// FilesDropped counts recovered files deleted again because another
	// daemon homed the same path while this one was down.
	FilesDropped int
	// TailLost counts files ground truth credited to the daemon that did
	// not survive recovery — a WAL tail lost to a weak sync policy. They
	// are scrubbed from the namespace.
	TailLost int
}

// RestartMDS recovers daemon id from its WAL directory and brings it back
// into the cluster. A daemon killed in place (KillMDS, or a real crash)
// restarts within its existing membership slot; one that was failed over
// rejoins through the same protocol AddMDS uses, then re-claims the files
// its log preserved. Requires Options.DataDir. The previous instance, if
// any, is killed first so the log directory is free to reopen.
func (c *Cluster) RestartMDS(ctx context.Context, id int) (RestartReport, error) {
	if c.opts.DataDir == "" {
		return RestartReport{}, fmt.Errorf("proto: RestartMDS requires Options.DataDir")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// The membership as it stood before the restart — the crashed instance's
	// node, still in memory, if it is a member — is what ground truth
	// credited; the reconcile below asks it.
	prev := c.fleet.Load()
	old, wasMember := c.servers[id]
	if wasMember {
		old.Kill()
	}
	rep := RestartReport{ID: id}
	ns, info, err := c.recoverNode(id)
	if err != nil {
		// In the wasMember case the dead instance stays in membership —
		// the operator can still FailMDS it.
		return rep, err
	}
	rep.Recovery = info
	rep.Addr = ns.Addr()
	// The recovered daemon serves the incarnation reconcileHomesLocked opens
	// below, so a batch claimed before the reconcile — which settles its
	// claims against what the daemon recovered — is refused, not applied
	// behind the reconcile's back.
	incarnation := c.incarnation[id] + 1
	ns.serve(incarnation)

	if wasMember {
		c.conns.register(id, ns.Addr())
		c.servers[id] = ns
		c.publishLocked(c.rewireLocked(ctx, id))
	} else {
		rep.Rejoined = true
		if _, err := c.joinLocked(ctx, id, ns); err != nil {
			return rep, err
		}
	}

	if conflicts := c.reconcileHomesLocked(id, prev, ns, &rep); len(conflicts) > 0 {
		// Another daemon homed these paths while this one was down; the
		// recovered copies lose. The delete goes through the mutation RPC so
		// it is WAL-logged like any other; ground truth never named id for
		// them, so there is no claim to make.
		dels := make([]wal.Record, len(conflicts))
		for i, p := range conflicts {
			dels[i] = wal.Record{Op: wal.OpDelete, Path: p}
		}
		_, _ = c.call(ctx, id, opMutateBatch, encodeMutations(incarnation, dels))
		rep.FilesDropped = len(conflicts)
	}
	return rep, nil
}

// rewireLocked re-establishes replica placement around a daemon restarted
// in its existing membership slot: the replicas it is on record as holding
// are fetched again (the crash emptied its replica array; each arrives as its
// origin last shipped it), and its own filter ships to its holders, whose
// copies may be newer than the last-shipped snapshot its log preserved.
// Best-effort, like the failover RPCs: a miss degrades lookups to L4, never
// corrupts them. It returns the layout to publish: the current one, less
// any replica a fetch failed to restore.
func (c *Cluster) rewireLocked(ctx context.Context, id int) group.Layout {
	cur := c.fleet.Load().Layout()
	next, _ := c.runPlan(ctx, cur.Refetch(id), cur, false)
	_, _ = c.ship(ctx, id, next.Holders(id))
	return next
}

// reconcileHomesLocked folds a recovered daemon's store back into the
// ground-truth namespace: id's cells are dropped, then every recovered path
// no other daemon homes gets one cell at id again; paths another daemon
// homed meanwhile are returned as conflicts (sorted, for deterministic
// message flow). A path a mutation round holds in flight counts as the
// round leaves it. Of the re-inserted paths, those ground truth credited to
// id before — confirmed through prev, the membership before the restart,
// whose node for id is the crashed instance still in memory (none after a
// failover, whose scrub already forgot them) — are kept; the rest are
// reclaimed, and id's cells no recovered path kept are tail loss. It bumps
// id's incarnation: ground truth now matches the recovered store, so no leg
// claimed before may move a cell. Callers hold c.mu exclusively.
func (c *Cluster) reconcileHomesLocked(id int, prev *mds.Fleet, ns *NodeServer, rep *RestartReport) []string {
	var conflicts, rehome []string
	kept := 0
	for _, p := range ns.node.Store().Paths() {
		owner, ok := c.homes.Get(p, prev.Holds)
		credited := ok && owner == id
		if f := c.inFlight(p); f != nil {
			owner, ok = f.home, f.home >= 0
		}
		switch {
		case ok && owner != id:
			conflicts = append(conflicts, p)
			continue
		case credited:
			kept++
		case !ok:
			rep.FilesReclaimed++
		}
		rehome = append(rehome, p)
	}
	rep.TailLost = c.homes.Scrub(id) - kept
	for _, p := range rehome {
		c.homes.Insert(p, id)
	}
	c.incarnation[id]++
	sort.Strings(conflicts)
	return conflicts
}
