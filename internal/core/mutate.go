package core

import (
	"math/rand"
	"time"

	"ghba/internal/mds"
	"ghba/internal/simnet"
	"ghba/internal/trace"
)

// lockedRand draws from the cluster's internal RNG under rngMu: the serial
// API's mds.Intner, usable next to parallel workers. Code that holds c.mu
// locks rngMu itself around Draw(c.rng) instead, so the lock graph, which
// does not follow a call through an interface, records the mu → rngMu order.
type lockedRand struct{ c *Cluster }

func (l lockedRand) Intn(n int) int {
	l.c.rngMu.Lock()
	v := l.c.rng.Intn(n)
	l.c.rngMu.Unlock()
	return v
}

// noteMutationLocked checks origin's XOR-delta drift and, past the threshold,
// marks it dirty in the ship queue, draining inline when the batch fills.
// Requires c.mu (read suffices), under which f is the current fleet.
func (c *Cluster) noteMutationLocked(f *mds.Fleet, origin int) {
	if !f.Node(origin).NeedsShip(c.cfg.UpdateThresholdBits) {
		return
	}
	c.shipBatchLocked(f, c.ships.Note(origin))
}

// shipBatchLocked ships every origin in the batch (nil is a no-op) over f.
// Requires c.mu (read suffices).
func (c *Cluster) shipBatchLocked(f *mds.Fleet, origins []int) {
	for _, origin := range origins {
		c.updateLocked(f, origin)
	}
}

// updateLocked ships origin as an XOR-delta update: shipOriginLocked with the
// messages booked. Returns the update latency. Requires c.mu (read suffices).
func (c *Cluster) updateLocked(f *mds.Fleet, origin int) time.Duration {
	msgs, latency := c.shipOriginLocked(f, origin)
	c.msgs.Add(simnet.MsgReplicaUpdate, uint64(msgs))
	return latency
}

// deleteInnerLocked removes path, returning its pre-delete home (-1 when absent)
// and whether it existed. Requires c.mu (read suffices), under which f is the
// current fleet. The unlink runs under the path's shard lock, paired with
// applyRecord's claim-and-install, so create and delete of one path fully
// serialize. The home's filter goes stale until its rebuild threshold
// triggers.
func (c *Cluster) deleteInnerLocked(f *mds.Fleet, path string) (int, bool) {
	var node *mds.Node
	home, ok := c.homes.RemoveThen(path, f.Holds, func(home int) {
		node = f.Node(home)
		node.DeleteFile(path)
	})
	if !ok {
		return -1, false
	}
	if node.RebuildIfStale(mds.RebuildDeleteThreshold) {
		// The rebuild changed the filter wholesale; ship the fresh
		// snapshot through the coalescing queue.
		c.shipBatchLocked(f, c.ships.Note(home))
	}
	return home, true
}

// PushUpdate ships the origin MDS's current filter to the one replica holder
// in every other group — the paper's core update saving over HBA's
// system-wide multicast ("we only need to update the stale replica in each
// group"). It bypasses the coalescing queue (and clears the origin's dirty
// mark). Returns the update latency: the multicast to the groups plus the
// in-place apply at the slowest holder.
func (c *Cluster) PushUpdate(origin int) time.Duration {
	c.mu.RLock()
	defer c.mu.RUnlock()
	c.ships.Forget(origin)
	return c.updateLocked(c.fleet.Load(), origin)
}

// Flush drains the coalescing ship queue, bringing every dirty origin's
// replicas up to its latest snapshot. Call it at quiescent points (end of a
// replay, before invariant-sensitive measurements) when running with a
// ShipBatch larger than one.
func (c *Cluster) Flush() {
	c.mu.RLock()
	defer c.mu.RUnlock()
	c.shipBatchLocked(c.fleet.Load(), c.ships.Drain())
}

// PendingShips returns how many origins have crossed the ship threshold but
// not yet drained — observability for the coalescing queue.
func (c *Cluster) PendingShips() int { return c.ships.PendingCount() }

// shipOriginLocked distributes origin's current filter snapshot to the one
// replica holder in every other group of f — the cluster's only caller of
// mds.Node.Ship. f's layout names each holder, so the multicast costs one
// message per holder, the unit the TCP backend counts too. It returns those
// messages and the multicast's latency; the caller books the messages (an
// XOR-delta update) or does not (bulk population, a newcomer's
// distribution, which its join's Report prices).
// Requires c.mu (read or write): f must be the current fleet, or the
// successor a reconfiguration holding it exclusively is wiring, while the
// holder arrays and the origin's snapshot state synchronize on their own
// locks, so concurrent shippers on different origins proceed in parallel.
// Ships of the *same* origin serialize on a striped lock — without it, two
// racing shippers could install an older snapshot over a newer one at some
// holder while the origin's staleness tracking already counts drift against
// the newer, silently loosening the XOR-delta bound. Unknown origins (retired between
// enqueue and drain) are ignored.
func (c *Cluster) shipOriginLocked(f *mds.Fleet, origin int) (msgs int, latency time.Duration) {
	node := f.Node(origin)
	if node == nil {
		return 0, 0
	}
	stripe := &c.shipStripes[uint(origin)%uint(len(c.shipStripes))]
	stripe.Lock()
	defer stripe.Unlock()
	snap := node.Ship()
	var slowestApply time.Duration
	for _, g := range f.Layout().Groups() {
		holder, ok := g.Holder(origin)
		if !ok {
			continue // origin's own group
		}
		hn := f.Node(holder)
		hn.InstallReplica(origin, snap)
		msgs++
		// Applying the update costs one probe-equivalent write at the
		// holder; spilled replicas pay a disk write.
		slowestApply = max(slowestApply, c.applyCost(hn))
	}
	return msgs, c.cfg.Cost.Multicast(msgs) + slowestApply
}

// applyCost returns the cost of rewriting one replica at a holder: a memory
// write when the holder's replica set is resident, a disk write for the
// spilled fraction.
func (c *Cluster) applyCost(node *mds.Node) time.Duration {
	total := node.ReplicaCount() + 1
	perReplica := c.replicaBytes(node.LocalFilter().SizeBytes())
	totalBytes := uint64(total) * perReplica
	spilled := c.mem.SpilledReplicas(total, totalBytes)
	if spilled == 0 {
		return c.cfg.Cost.MemProbe
	}
	// Probability the touched replica is one of the spilled ones.
	frac := float64(spilled) / float64(total)
	return c.cfg.Cost.MemProbe +
		time.Duration(frac*(1-c.cfg.CacheHitRate)*float64(c.cfg.Cost.DiskRead))
}

// Apply dispatches one trace record against the cluster: mutations create or
// delete files, reads perform lookups. The entry MDS is chosen uniformly
// from the cluster's internal RNG, as in the paper's methodology. Returns
// the lookup result; pure mutations report Level 0, with a delete's Home
// and Found describing the pre-delete state so replay checkpoints can
// distinguish deletes of live paths from deletes of missing ones.
func (c *Cluster) Apply(rec trace.Record) LookupResult {
	return c.applyRecord(lockedRand{c}, rec)
}

// ApplyWith is Apply with a caller-supplied RNG: parallel replay workers
// give each goroutine its own seeded RNG so record dispatch shares no
// mutable randomness, and a single-worker run is bit-for-bit the serial
// engine driven by that RNG.
func (c *Cluster) ApplyWith(rng *rand.Rand, rec trace.Record) LookupResult {
	return c.applyRecord(rng, rec)
}

func (c *Cluster) applyRecord(r mds.Intner, rec trace.Record) LookupResult {
	c.mu.RLock()
	defer c.mu.RUnlock()
	// The read lock excludes reconfiguration, so f stays the current fleet
	// until the record is applied.
	f := c.fleet.Load()
	switch rec.Op {
	case trace.OpCreate:
		// One draw either way: it becomes the home of a fresh path, or the
		// entry point when creating an existing path degenerates to an
		// open. PutIfAbsentThen is the atomic claim-and-install, so two
		// workers racing on the same path cannot both home it, and a
		// racing delete cannot slip between the claim and the node update.
		id := f.Draw(r)
		node := f.Node(id)
		if _, inserted := c.homes.PutIfAbsentThen(rec.Path, id, f.Holds, func() { node.AddFile(rec.Path) }); !inserted {
			return c.lookupFleet(f, rec.Path, id, rec.At, true)
		}
		c.noteMutationLocked(f, id)
		return LookupResult{Path: rec.Path, Home: id, Found: true, Level: 0}
	case trace.OpDelete:
		home, existed := c.deleteInnerLocked(f, rec.Path)
		return LookupResult{Path: rec.Path, Home: home, Found: existed, Level: 0}
	default:
		return c.lookupFleet(f, rec.Path, f.Draw(r), rec.At, true)
	}
}
