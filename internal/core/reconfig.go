package core

import (
	"fmt"

	"ghba/internal/group"
	"ghba/internal/mds"
	"ghba/internal/simnet"
)

// Reconfiguration is planned by internal/group — which group a newcomer
// joins, which replicas move where, when groups split and merge — and
// executed here on the in-memory nodes. Each operation below asks the current
// fleet's layout for its successor and the Plan that leads there, builds the
// successor fleet, runs the plan, and publishes that fleet before the
// topology lock is released.

// applyPlanLocked performs plan's moves on f's nodes. f must hold every node
// a move names: the successor for a join or a failure, the predecessor for a
// leave, whose leaver hands its replicas over. The layout the plan leads to is
// the successor fleet's, the one record of which member holds which replica
// (the paper multicasts it as IDBFAs; plan.Notices prices those messages).
// Requires the write lock.
func (c *Cluster) applyPlanLocked(f *mds.Fleet, plan group.Plan) {
	for _, mv := range plan.Moves {
		switch mv.Kind {
		case group.Migrate:
			f.Node(mv.To).InstallReplica(mv.Origin, f.Node(mv.From).DropReplica(mv.Origin))
		case group.Fetch:
			f.Node(mv.To).InstallReplica(mv.Origin, f.Node(mv.Origin).Shipped())
		case group.Drop:
			f.Node(mv.From).DropReplica(mv.Origin)
		}
	}
}

// AddMDS brings a new metadata server into the system (Section 3.1–3.2):
// the newcomer joins a group with spare capacity, or triggers a group split
// when every group is full. The newcomer's own filter is then shipped to its
// holder in every other group. Returns the new MDS ID and the
// reconfiguration report (replicas migrated, messages exchanged) that Figs
// 11 and 15 chart.
func (c *Cluster) AddMDS() (int, group.Report, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.nextMDSID
	node, err := mds.NewNode(id, c.cfg.Node)
	if err != nil {
		return 0, group.Report{}, fmt.Errorf("core: creating MDS %d: %w", id, err)
	}
	c.nextMDSID++

	f := c.fleet.Load()
	layout, plan := f.Layout().Join(id)
	next := f.Successor(layout, node, -1)
	c.applyPlanLocked(next, plan)
	c.shipOriginLocked(next, id) // priced by the plan's Report, not booked as an update
	c.publishLocked(next)

	rep := plan.Report()
	c.msgs.Add(simnet.MsgReplicaMigration, uint64(rep.ReplicasMigrated))
	c.msgs.Add(simnet.MsgMembership, uint64(rep.Messages-rep.ReplicasMigrated))
	return id, rep, nil
}

// RemoveMDS takes a server out of the system (Fig 4b): its replicas migrate
// to surviving group members, the other groups delete their replica of it,
// shrunken groups merge when their union fits within M, and its files are
// re-homed across the survivors.
func (c *Cluster) RemoveMDS(id int) (group.Report, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := c.fleet.Load()
	node := f.Node(id)
	if node == nil {
		return group.Report{}, fmt.Errorf("core: unknown MDS %d", id)
	}
	if len(f.IDs()) == 1 {
		return group.Report{}, fmt.Errorf("core: refusing to remove the last MDS")
	}
	// The leaver hands its replicas over before it goes.
	layout, plan := f.Layout().Leave(id)
	next := f.Successor(layout, nil, id)
	c.applyPlanLocked(f, plan)
	c.retireLocked(id)

	// Re-home the departed server's files across the survivors. The paper
	// treats metadata re-distribution as orthogonal (fail-over keeps
	// serving at degraded coverage); the simulator re-homes so ground
	// truth stays consistent. Each file moves in one shard-locked step,
	// so a lookup still walking the old fleet — the successor is published
	// only after the last move — finds it at one home or the other.
	for _, path := range node.Store().Paths() {
		c.rngMu.Lock()
		to := next.Node(next.Draw(c.rng))
		c.rngMu.Unlock()
		if !c.homes.Rehome(path, id, to.ID(), func(_ int, p string) bool { return node.HasFile(p) }, func() { to.AddFile(path) }) {
			panic(fmt.Sprintf("core: MDS %d stores %s, which the home index does not home there", id, path))
		}
	}
	for _, sid := range next.IDs() {
		if next.Node(sid).NeedsShip(c.cfg.UpdateThresholdBits) {
			c.ships.Forget(sid)
			c.updateLocked(next, sid)
		}
	}
	c.publishLocked(next)

	rep := plan.Report()
	c.msgs.Add(simnet.MsgReplicaMigration, uint64(rep.ReplicasMigrated))
	return rep, nil
}

// retireLocked takes a departed or dead server off the books the fleet does
// not carry: the ship queue and the L1 entries naming it. Requires the write
// lock.
func (c *Cluster) retireLocked(id int) {
	c.ships.Forget(id)
	c.lru.Forget(id)
}
