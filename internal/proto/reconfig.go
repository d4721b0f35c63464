package proto

import (
	"context"

	"ghba/internal/group"
)

// AddMDS brings a new daemon into the running prototype, performing the
// reconfiguration over real RPCs. It returns the new ID and the report of
// the plan it ran — replicas migrated (Fig 11) and protocol messages (Fig 15)
// — which, the plan being internal/group's, is what the simulator reports
// for the same join.
//
// The newcomer joins the fullest group with room (offload migrations) or
// splits a full group (replica-copy exchange), then its filter ships to one
// member of each other group. With groups of one — the HBA baseline — every
// join is a split: the newcomer fetches a replica from every existing server
// and every server receives the newcomer's filter, O(N) messages.
//
// AddMDS is an exclusive writer: it holds the membership write lock for the
// whole reconfiguration, so concurrent lookups either ran against the old
// membership (snapshotted before the lock) or wait and see the fully wired
// newcomer. The newcomer enters the member set only after reconfiguration
// completes — a lookup can never select a half-wired daemon as its entry
// and probe an empty node.
func (c *Cluster) AddMDS(ctx context.Context) (int, group.Report, error) {
	// Build and launch the daemon before taking the write lock; only the
	// reconfiguration itself excludes readers.
	c.mu.Lock()
	id := c.nextID
	c.nextID++
	c.mu.Unlock()

	ns, _, err := c.launchNode(id)
	if err != nil {
		return 0, group.Report{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	rep, err := c.joinLocked(ctx, id, ns)
	if err != nil {
		return 0, group.Report{}, err
	}
	return id, rep, nil
}

// joinLocked wires daemon id, already launched as ns, into the cluster: it
// plans the join, runs the plan strictly and ships the newcomer's filter to
// its holders. The successor layout exists before the first RPC and is
// committed after the last, so rolling a failed join back is not committing:
// no group or holder entry ever references the abandoned daemon (a lookup
// hitting such an entry would fail with "unknown MDS", and the next
// Populate's seeding would panic on the missing server). Replicas already migrated onto the
// newcomer cost affected lookups an L4 fallback until the next Populate
// re-ships them — correctness is preserved either way. Callers hold c.mu
// exclusively.
func (c *Cluster) joinLocked(ctx context.Context, id int, ns *NodeServer) (group.Report, error) {
	// The connection registers early — reconfiguration RPCs must reach the
	// newcomer — but the membership snapshot does not.
	c.conns.register(id, ns.Addr())
	next, plan := c.fleet.Load().Layout().Join(id)
	_, err := c.runPlan(ctx, plan, next, true)
	if err == nil {
		_, err = c.ship(ctx, id, next.Holders(id))
	}
	if err != nil {
		ns.Close()
		c.conns.unregister(id)
		return group.Report{}, err
	}
	c.servers[id] = ns
	c.publishLocked(next)
	return plan.Report(), nil
}

// runPlan executes plan's moves as RPCs, in order, and returns the layout to
// commit. Strict (a join): the first failure aborts, and the caller discards
// next. Best-effort (failover, restart — removing a dead daemon must not
// itself be blockable by another hiccup): a Fetch or Migrate that fails
// un-holds its replica in the returned layout, so the group loses coverage of
// that origin (L4 still finds its files) rather than naming a holder that
// has nothing; a failed Drop leaves a stale copy, which costs lookups a
// skipped hit — never a wrong answer, because lookups filter hits against
// live membership and every positive is store-verified.
func (c *Cluster) runPlan(ctx context.Context, plan group.Plan, next group.Layout, strict bool) (group.Layout, error) {
	for _, mv := range plan.Moves {
		err := c.runMove(ctx, mv)
		if err != nil && strict {
			return next, err
		}
		if err != nil && mv.Kind != group.Drop {
			next = next.Unhold(mv.Origin, mv.To)
		}
	}
	return next, nil
}

// runMove performs one move: From gives the filter up — a member its replica
// (fetch-and-drop), or for a Fetch the origin what it last shipped, leaving
// its drift tracking alone — and, unless the move is a Drop, To installs it.
func (c *Cluster) runMove(ctx context.Context, mv group.Move) error {
	op, req := opDropReplica, encodeOriginPayload(mv.Origin, nil)
	if mv.Kind == group.Fetch {
		op, req = opFetchShipped, nil
	}
	snap, err := c.call(ctx, mv.From, op, req)
	if err != nil || mv.Kind == group.Drop {
		return err
	}
	_, err = c.call(ctx, mv.To, opInstallReplica, encodeOriginPayload(mv.Origin, snap))
	return err
}
