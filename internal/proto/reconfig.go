package proto

import (
	"context"
	"sort"
	"sync/atomic"
)

// AddMDS brings a new daemon into the running prototype, performing the
// reconfiguration over real RPCs and returning the new ID and the number of
// messages the operation cost — the quantity Fig 15 charts per scheme.
//
// The newcomer joins a group with room (offload migrations + IDBFA
// multicast) or splits a full group (replica-copy exchange), then its filter
// goes to one member of each other group. With groups of one — the HBA
// baseline — every join is a split: the newcomer fetches a replica from every
// existing server and every server receives the newcomer's filter, O(N)
// messages.
//
// AddMDS is an exclusive writer: it holds the membership write lock for the
// whole reconfiguration, so concurrent lookups either ran against the old
// membership (snapshotted before the lock) or wait and see the fully wired
// newcomer. The newcomer enters the member set only after reconfiguration
// completes — a lookup can never select a half-wired daemon as its entry
// and probe an empty node. The operation's message count is tracked
// per-operation, so concurrent lookup traffic does not pollute it.
func (c *Cluster) AddMDS(ctx context.Context) (int, int, error) {
	// Build and launch the daemon before taking the write lock; only the
	// reconfiguration itself excludes readers.
	c.mu.Lock()
	id := c.nextID
	c.nextID++
	c.mu.Unlock()

	ns, _, err := c.launchNode(id)
	if err != nil {
		return 0, 0, err
	}
	// The connection pool registers early — reconfiguration RPCs must
	// reach the newcomer — but the membership index does not.
	c.conns.register(id, ns.Addr())

	var msgs atomic.Int64
	c.mu.Lock()
	defer c.mu.Unlock()
	groupsBak, holdersBak := copyGroups(c.groups), copyHolders(c.holders)
	if err := c.addGHBALocked(ctx, id, &msgs); err != nil {
		// Roll the coordinator's bookkeeping back to the pre-join state so
		// no group or holder entry references the abandoned daemon (a
		// lookup hitting such an entry would fail with "unknown MDS", and
		// refreshReplicas would panic on the missing server). Replicas
		// already migrated onto the newcomer cost affected lookups an L4
		// fallback until the next Populate re-ships them — correctness is
		// preserved either way.
		c.groups, c.holders = groupsBak, holdersBak
		ns.Close()
		c.conns.unregister(id)
		return 0, 0, err
	}
	c.servers[id] = ns
	c.rebuildIndexLocked()
	return id, int(msgs.Load()), nil
}

// addGHBALocked: join-with-room or split, then replica distribution.
func (c *Cluster) addGHBALocked(ctx context.Context, id int, msgs *atomic.Int64) error {
	gi := c.pickGroupWithRoom()
	if gi >= 0 {
		if err := c.joinGroup(ctx, gi, id, msgs); err != nil {
			return err
		}
	} else {
		if err := c.splitGroup(ctx, id, msgs); err != nil {
			return err
		}
	}
	// Distribute the newcomer's filter to one member of each other group.
	ownGroup := c.groupOfLocked(id)
	snap, err := c.call(ctx, id, opShipFilter, nil, msgs)
	if err != nil {
		return err
	}
	for _, gi := range sortedKeys(c.groups) {
		if gi == ownGroup || len(c.groups[gi]) == 0 {
			continue
		}
		if _, held := c.holders[gi][id]; held {
			// The split exchange already copied the newcomer's replica to
			// its sibling group; a second install would land on whichever
			// member is lightest now and orphan the first copy.
			continue
		}
		target := c.lightestMember(gi)
		if _, err := c.call(ctx, target, opInstallReplica, encodeOriginPayload(id, snap), msgs); err != nil {
			return err
		}
		c.holders[gi][id] = target
	}
	return nil
}

// groupOfLocked returns the group index containing id (G-HBA), or -1. It
// scans c.groups directly because reconfiguration mutates groups mid-flight
// and the cached groupIdx is only rebuilt afterwards. Callers hold c.mu.
func (c *Cluster) groupOfLocked(id int) int {
	for gi, members := range c.groups {
		for _, m := range members {
			if m == id {
				return gi
			}
		}
	}
	return -1
}

// pickGroupWithRoom returns the smallest group below M members, or -1 when
// every group is full. Ties go to the lowest group index: which group a
// newcomer joins decides the whole message flow, so map iteration order must
// not pick it.
func (c *Cluster) pickGroupWithRoom() int {
	best, bestSize := -1, c.opts.M
	for _, gi := range sortedKeys(c.groups) {
		if size := len(c.groups[gi]); size < bestSize {
			best, bestSize = gi, size
		}
	}
	return best
}

// lightestMember returns the member of group gi holding the fewest
// replicas, by ascending ID on ties.
func (c *Cluster) lightestMember(gi int) int {
	counts := make(map[int]int)
	for _, holder := range c.holders[gi] {
		counts[holder]++
	}
	members := append([]int(nil), c.groups[gi]...)
	best := members[0]
	for _, m := range members[1:] {
		if counts[m] < counts[best] || (counts[m] == counts[best] && m < best) {
			best = m
		}
	}
	return best
}

// joinGroup performs the light-weight migration: members above the target
// replica count offload their excess to the newcomer over RPC, then the
// updated IDBFA is multicast (a ping per member).
func (c *Cluster) joinGroup(ctx context.Context, gi, id int, msgs *atomic.Int64) error {
	members := c.groups[gi]
	newSize := len(members) + 1
	// The newcomer is not yet registered in c.servers, hence the +1.
	external := len(c.servers) + 1 - newSize
	target := (external + newSize - 1) / newSize
	counts := make(map[int][]int) // holder → origins
	for origin, holder := range c.holders[gi] {
		counts[holder] = append(counts[holder], origin)
	}
	// Map iteration order must not pick which replicas migrate: sort each
	// holder's origins so the reconfiguration message flow is identical
	// run-to-run under a fixed seed.
	for _, origins := range counts {
		sort.Ints(origins)
	}
	for _, m := range members {
		origins := counts[m]
		excess := len(origins) - target
		for i := 0; i < excess; i++ {
			origin := origins[i]
			// Fetch-and-drop from the current holder, install on newcomer.
			snap, err := c.call(ctx, m, opDropReplica, encodeOriginPayload(origin, nil), msgs)
			if err != nil {
				return err
			}
			if _, err := c.call(ctx, id, opInstallReplica, encodeOriginPayload(origin, snap), msgs); err != nil {
				return err
			}
			c.holders[gi][origin] = id
		}
	}
	// Batched IDBFA multicast to the existing members.
	for _, m := range members {
		if _, err := c.call(ctx, m, opPing, nil, msgs); err != nil {
			return err
		}
	}
	c.groups[gi] = append(append([]int(nil), members...), id)
	return nil
}

// splitGroup divides the first full group into two halves, the newcomer
// joining the second, with replica-copy exchange so both halves keep a
// global mirror image.
func (c *Cluster) splitGroup(ctx context.Context, id int, msgs *atomic.Int64) error {
	// Deterministic victim: lowest group index. The new group takes the
	// next index above every live one — failover deletes dissolved groups,
	// so the count of groups may name an index still in use.
	gis := sortedKeys(c.groups)
	victim, newGi := gis[0], gis[len(gis)-1]+1
	members := c.groups[victim]
	move := len(members) / 2
	moving := append([]int(nil), members[len(members)-move:]...)
	staying := append([]int(nil), members[:len(members)-move]...)

	c.groups[victim] = staying
	c.groups[newGi] = append(moving, id)
	c.holders[newGi] = make(map[int]int)

	// Carry moved holders' replicas into the new group's bookkeeping.
	movingSet := make(map[int]bool, len(moving))
	for _, m := range moving {
		movingSet[m] = true
	}
	for origin, holder := range c.holders[victim] {
		if movingSet[holder] {
			c.holders[newGi][origin] = holder
			delete(c.holders[victim], origin)
		}
	}

	inGroup := func(gi, mdsID int) bool {
		for _, m := range c.groups[gi] {
			if m == mdsID {
				return true
			}
		}
		return false
	}
	// Each side copies the external origins it now lacks from the other
	// side, and fetches fresh filters of the other side's members. Origins
	// are visited in sorted order so the message flow is deterministic.
	for _, pair := range []struct{ dst, src int }{{victim, newGi}, {newGi, victim}} {
		for _, origin := range sortedKeys(c.holders[pair.src]) {
			if inGroup(pair.dst, origin) {
				continue
			}
			if _, ok := c.holders[pair.dst][origin]; ok {
				continue
			}
			// Fetch a fresh filter from the origin itself (alive in the
			// prototype); copying the other side's replica bytes would be
			// equivalent but staler.
			snap, err := c.call(ctx, origin, opShipFilter, nil, msgs)
			if err != nil {
				return err
			}
			target := c.lightestMember(pair.dst)
			if _, err := c.call(ctx, target, opInstallReplica, encodeOriginPayload(origin, snap), msgs); err != nil {
				return err
			}
			c.holders[pair.dst][origin] = target
		}
		for _, member := range c.groups[pair.src] {
			if _, ok := c.holders[pair.dst][member]; ok {
				continue
			}
			snap, err := c.call(ctx, member, opShipFilter, nil, msgs)
			if err != nil {
				return err
			}
			target := c.lightestMember(pair.dst)
			if _, err := c.call(ctx, target, opInstallReplica, encodeOriginPayload(member, snap), msgs); err != nil {
				return err
			}
			c.holders[pair.dst][member] = target
		}
	}
	// IDBFA multicast within both halves.
	for _, gi := range []int{victim, newGi} {
		for _, m := range c.groups[gi] {
			if _, err := c.call(ctx, m, opPing, nil, msgs); err != nil {
				return err
			}
		}
	}
	return nil
}

// sortedKeys returns a map's keys in ascending order.
func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// copyGroups deep-copies the group membership map for rollback.
func copyGroups(groups map[int][]int) map[int][]int {
	out := make(map[int][]int, len(groups))
	for gi, members := range groups {
		out[gi] = append([]int(nil), members...)
	}
	return out
}

// copyHolders deep-copies the replica-holder map for rollback.
func copyHolders(holders map[int]map[int]int) map[int]map[int]int {
	out := make(map[int]map[int]int, len(holders))
	for gi, m := range holders {
		cp := make(map[int]int, len(m))
		for origin, holder := range m {
			cp[origin] = holder
		}
		out[gi] = cp
	}
	return out
}
