package core

import (
	"math/rand"
	"time"

	"ghba/internal/mds"
	"ghba/internal/simnet"
	"ghba/internal/trace"
)

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
// ApplyWith's claim-and-install, so create and delete of one path fully
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
// write, plus a disk write damped by the page cache with the probability
// that the touched replica is a spilled one.
func (c *Cluster) applyCost(node *mds.Node) time.Duration {
	share := c.SpilledShare(node)
	if share == 0 {
		return c.cfg.Cost.MemProbe
	}
	return c.cfg.Cost.MemProbe +
		time.Duration(share*(1-c.cfg.CacheHitRate)*float64(c.cfg.Cost.DiskRead))
}

// SpilledShare returns the share of node's segment array past the memory
// budget: the probability that one probed filter there is disk resident.
func (c *Cluster) SpilledShare(node *mds.Node) float64 {
	return c.mem.SpilledShare(c.segment(node))
}

// ApplyWith dispatches one trace record against the cluster: mutations
// create or delete files, reads perform lookups. The entry MDS, or a new
// file's home, is drawn uniformly from the caller's RNG, as in the paper's
// methodology ("each request can randomly choose an MDS"): parallel replay
// workers give each goroutine its own seeded RNG, so record dispatch shares
// no mutable randomness and a single-worker run is bit-for-bit reproducible.
// Returns the lookup result; pure mutations report Level 0, with a delete's
// Home and Found describing the pre-delete state so replay checkpoints can
// distinguish deletes of live paths from deletes of missing ones.
//
// A lookup takes no lock, like LookupWith: it walks the membership snapshot it
// loads. Creates and deletes hold the topology read lock, which excludes
// reconfiguration, so the fleet they load stays current until the record is
// applied.
func (c *Cluster) ApplyWith(rng *rand.Rand, rec trace.Record) LookupResult {
	if rec.Op != trace.OpCreate && rec.Op != trace.OpDelete {
		f := c.fleet.Load()
		return c.lookupFleet(f, rec.Path, f.Draw(rng), rec.At, true)
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	f := c.fleet.Load()
	if rec.Op == trace.OpDelete {
		home, existed := c.deleteInnerLocked(f, rec.Path)
		return LookupResult{Path: rec.Path, Home: home, Found: existed, Level: 0}
	}
	// One draw either way: it becomes the home of a fresh path, or the entry
	// point when creating an existing path degenerates to an open.
	// PutIfAbsentThen is the atomic claim-and-install, so two workers racing
	// on the same path cannot both home it, and a racing delete cannot slip
	// between the claim and the node update.
	id := f.Draw(rng)
	node := f.Node(id)
	if _, inserted := c.homes.PutIfAbsentThen(rec.Path, id, f.Holds, func() { node.AddFile(rec.Path) }); !inserted {
		return c.lookupFleet(f, rec.Path, id, rec.At, true)
	}
	c.noteMutationLocked(f, id)
	return LookupResult{Path: rec.Path, Home: id, Found: true, Level: 0}
}
