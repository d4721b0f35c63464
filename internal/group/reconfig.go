package group

import (
	"fmt"

	"ghba/internal/mds"
)

// Join adds node to the group, performing the light-weight migration of
// Section 3.1 (Fig 4a): each existing member offloads its excess over
// ⌈(external)/(M′+1)⌉ replicas to the newcomer, the IDs of migrated replicas
// move between ID filters, and the updated IDBFA is multicast to the group.
//
// totalMDSs is the system-wide MDS count after the join; it determines the
// per-member replica target (N−M′)/M′ of the paper. The caller (the cluster
// layer) is responsible for distributing the newcomer's own replica to the
// other groups and for seeding the newcomer's replicas of *their* members —
// within this group the newcomer only receives offloaded replicas.
func (g *Group) Join(node *mds.Node, totalMDSs int) (Report, error) {
	var rep Report
	if node == nil {
		return rep, fmt.Errorf("group %d: nil node", g.id)
	}
	if g.HasMember(node.ID()) {
		return rep, fmt.Errorf("group %d: MDS %d already a member", g.id, node.ID())
	}

	// Hand the newcomer the group's current IDBFA state, then register it
	// in every member's IDBFA (including its own copy).
	if existing := g.lightestMember(); existing != nil {
		*node.IDBFA() = *existing.IDBFA().Clone()
	}
	if !node.IDBFA().HasMember(node.ID()) {
		if err := node.IDBFA().AddMember(node.ID()); err != nil {
			return rep, fmt.Errorf("group %d: registering newcomer: %w", g.id, err)
		}
	}
	for _, n := range g.members {
		if !n.IDBFA().HasMember(node.ID()) {
			if err := n.IDBFA().AddMember(node.ID()); err != nil {
				return rep, fmt.Errorf("group %d: registering newcomer on %d: %w", g.id, n.ID(), err)
			}
		}
	}
	rep.Messages++ // IDBFA handoff to the newcomer

	newSize := g.Size() + 1
	external := totalMDSs - newSize
	if external < 0 {
		external = 0
	}
	// The newcomer's fair share is (N−M′)/(M′+1) replicas (Section 3.1);
	// they are taken one at a time from whichever member is currently
	// heaviest, which both balances the group and matches the paper's
	// migration count.
	share := external / newSize

	for i := 0; i < share; i++ {
		heaviest := g.heaviestMember()
		if heaviest == nil || heaviest.ReplicaCount() == 0 {
			break
		}
		for origin, f := range heaviest.Replicas().PopRandom(1) {
			node.InstallReplica(origin, f)
			g.revokeAll(heaviest.ID(), origin)
			g.grantAll(node.ID(), origin)
			// The newcomer is not yet in g.members; mirror the IDBFA
			// changes onto its own copy. Both calls can only fail for an
			// unregistered member, which Join registered above.
			if err := node.IDBFA().Revoke(heaviest.ID(), origin); err != nil {
				return rep, fmt.Errorf("group %d: newcomer IDBFA revoke: %w", g.id, err)
			}
			if err := node.IDBFA().Grant(node.ID(), origin); err != nil {
				return rep, fmt.Errorf("group %d: newcomer IDBFA grant: %w", g.id, err)
			}
			rep.ReplicasMigrated++
			rep.Messages++ // the replica transfer
		}
	}

	g.members[node.ID()] = node
	// One batched IDBFA multicast to the rest of the group.
	rep.Messages += g.Size() - 1
	return rep, nil
}

// Leave removes the member with the given ID (Fig 4b): its replicas migrate
// to the lightest remaining members, its ID filter is removed from every
// IDBFA, and the departing node's replica array is emptied. The caller
// removes the departed MDS's own replica from the *other* groups and
// redistributes responsibility for the files it homed.
func (g *Group) Leave(id int) (Report, error) {
	var rep Report
	node, ok := g.members[id]
	if !ok {
		return rep, fmt.Errorf("group %d: MDS %d is not a member", g.id, id)
	}
	delete(g.members, id)

	// Migrate the departing member's replicas to the lightest survivors,
	// popped one at a time like Join does: ranging over a map of several
	// would hand them out in a different order every run.
	for node.ReplicaCount() > 0 {
		for origin, f := range node.Replicas().PopRandom(1) {
			g.revokeAll(id, origin)
			target := g.lightestMember()
			if target == nil {
				// Last member leaving: replicas evaporate with the group.
				continue
			}
			target.InstallReplica(origin, f)
			g.grantAll(target.ID(), origin)
			rep.ReplicasMigrated++
			rep.Messages++
		}
	}

	// Remove the departed member's ID filter from every survivor's IDBFA.
	for _, n := range g.members {
		n.IDBFA().RemoveMember(id)
	}
	if g.Size() > 0 {
		rep.Messages += g.Size() - 1 // batched IDBFA multicast
	}
	return rep, nil
}

// heaviestMember returns the member holding the most replicas, breaking
// ties by ascending ID. Nil when the group is empty.
func (g *Group) heaviestMember() *mds.Node {
	var best *mds.Node
	for _, id := range g.Members() {
		n := g.members[id]
		if best == nil || n.ReplicaCount() > best.ReplicaCount() {
			best = n
		}
	}
	return best
}
