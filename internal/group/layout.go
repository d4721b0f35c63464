// Package group plans G-HBA's group layer as arithmetic over MDS IDs: which
// servers form which group, which member of a group holds the Bloom-filter
// replica of which outside server (Section 2.3, Fig 3), and — when a server
// joins, leaves or crashes — the ordered replica moves that turn one such
// Layout into the next (Sections 3.1–3.2 and 4.5, Figs 4–5).
//
// The package holds no server state and performs no move: it imports nothing
// of the engines. internal/core executes a Plan on in-memory nodes and
// internal/proto executes the same Plan as RPCs, so every placement decision
// — which group a newcomer joins, which replica migrates, who holds what
// after a split or a merge — is taken once, here, and both backends agree on
// it by construction.
//
// The invariant every operation preserves is the paper's "global mirror
// image": in every group, each MDS of the system is either a member or the
// origin of exactly one replica held by exactly one member (Layout.Check).
//
// A Layout is an immutable value: operations return a successor and never
// write through the receiver, so a published Layout — and the member slices
// inside it — may be read without synchronization for as long as anyone
// keeps it.
package group

import (
	"fmt"
	"slices"
)

// Replica records that Holder, a member of the group, stores the replica of
// Origin's filter.
type Replica struct {
	Origin, Holder int
}

// Group is one MDS group of a Layout. Treat it as read-only.
type Group struct {
	// ID identifies the group; a merged group keeps the absorbing group's.
	ID int
	// Members are the group's MDS IDs, ascending. The slice is never written
	// after the Layout that carries it is returned.
	Members []int
	// Replicas lists what the group mirrors, ascending by origin: one entry
	// per MDS outside the group.
	Replicas []Replica
}

// Layout is the group layer's whole state: the groups, who holds which
// replica in each, the maximum group size M and the next group ID.
type Layout struct {
	m      int
	nextID int
	groups []Group // ascending ID
}

// NewLayout partitions MDSs 0..n−1 into ⌈n/m⌉ groups with sizes as even as
// possible (none exceeds m, none is left as a tiny tail), then has every group
// mirror every outside MDS, each replica going to the member that holds the
// fewest. n and m must be at least 1.
func NewLayout(n, m int) Layout {
	l := Layout{m: m}
	numGroups := (n + m - 1) / m
	next := 0
	for ; l.nextID < numGroups; l.nextID++ {
		size := n / numGroups
		if l.nextID < n%numGroups {
			size++
		}
		members := make([]int, size)
		for i := range members {
			members[i] = next + i
		}
		next += size
		l.groups = append(l.groups, Group{ID: l.nextID, Members: members})
	}
	for origin := 0; origin < n; origin++ {
		for i := range l.groups {
			l.groups[i].install(origin)
		}
	}
	return l
}

// Groups returns the groups in ascending ID order. The slice is shared with
// the Layout; callers must not modify it.
func (l Layout) Groups() []Group { return l.groups }

// GroupOf returns the group id is a member of, or nil.
func (l Layout) GroupOf(id int) *Group {
	for i := range l.groups {
		if l.groups[i].has(id) {
			return &l.groups[i]
		}
	}
	return nil
}

// Holders returns the member holding origin's replica in every group that
// mirrors it, in ascending group order — the targets of a replica update.
func (l Layout) Holders(origin int) []int {
	var out []int
	for i := range l.groups {
		if holder, ok := l.groups[i].Holder(origin); ok {
			out = append(out, holder)
		}
	}
	return out
}

// numMDS returns the population: every MDS is a member of exactly one group.
func (l Layout) numMDS() int {
	n := 0
	for i := range l.groups {
		n += len(l.groups[i].Members)
	}
	return n
}

// Unhold returns the layout without a replica of origin in member's group:
// what an executor commits when a best-effort Fetch or Migrate towards that
// member failed, so the group admits it lost coverage of origin instead of
// naming a holder that has nothing.
func (l Layout) Unhold(origin, member int) Layout {
	l = l.clone()
	if g := l.GroupOf(member); g != nil {
		g.remove(origin)
	}
	return l
}

// clone returns a copy whose groups and replica lists may be edited without
// writing through l. Member slices stay shared: an edit replaces them.
func (l Layout) clone() Layout {
	groups := make([]Group, len(l.groups))
	for i, g := range l.groups {
		g.Replicas = slices.Clone(g.Replicas)
		groups[i] = g
	}
	l.groups = groups
	return l
}

// Check verifies the layout against the sorted MDS population ids: every
// group has between 1 and M members, every MDS belongs to exactly one group,
// and in every group each MDS is either a member or the origin of exactly one
// replica held by a member — never both, never neither. A nil return means
// the global mirror image holds.
func (l Layout) Check(ids []int) error {
	for i := range l.groups {
		g := &l.groups[i]
		if len(g.Members) == 0 || len(g.Members) > l.m {
			return fmt.Errorf("group %d has %d members, want 1..%d", g.ID, len(g.Members), l.m)
		}
		for _, id := range ids {
			_, held := g.Holder(id)
			if member := g.has(id); member && held {
				return fmt.Errorf("group %d holds a replica of its own member %d", g.ID, id)
			} else if !member && !held {
				return fmt.Errorf("group %d: MDS %d not covered", g.ID, id)
			}
		}
		if len(g.Members)+len(g.Replicas) != len(ids) {
			return fmt.Errorf("group %d covers %d members + %d replicas, the system has %d MDSs",
				g.ID, len(g.Members), len(g.Replicas), len(ids))
		}
		for k, r := range g.Replicas {
			if k > 0 && g.Replicas[k-1].Origin >= r.Origin {
				return fmt.Errorf("group %d: MDS %d covered twice", g.ID, r.Origin)
			}
			if !g.has(r.Holder) {
				return fmt.Errorf("group %d: replica of %d held by non-member %d", g.ID, r.Origin, r.Holder)
			}
		}
	}
	for _, id := range ids {
		if l.GroupOf(id) == nil {
			return fmt.Errorf("MDS %d belongs to no group", id)
		}
	}
	if n := l.numMDS(); n != len(ids) {
		return fmt.Errorf("groups list %d members, the system has %d MDSs", n, len(ids))
	}
	return nil
}

// has reports whether id is a member.
func (g *Group) has(id int) bool {
	_, ok := slices.BinarySearch(g.Members, id)
	return ok
}

// find returns origin's position in the replica list and whether it is held.
func (g *Group) find(origin int) (int, bool) {
	return slices.BinarySearchFunc(g.Replicas, origin, func(r Replica, o int) int { return r.Origin - o })
}

// Holder returns the member holding origin's replica.
func (g *Group) Holder(origin int) (int, bool) {
	if i, ok := g.find(origin); ok {
		return g.Replicas[i].Holder, true
	}
	return -1, false
}

// HeldBy returns the origins whose replicas member holds, ascending.
func (g *Group) HeldBy(member int) []int {
	var out []int
	for _, r := range g.Replicas {
		if r.Holder == member {
			out = append(out, r.Origin)
		}
	}
	return out
}

// put records holder as the member storing origin's replica.
func (g *Group) put(origin, holder int) {
	i, ok := g.find(origin)
	if !ok {
		g.Replicas = slices.Insert(g.Replicas, i, Replica{Origin: origin})
	}
	g.Replicas[i].Holder = holder
}

// remove forgets origin's replica, returning who held it.
func (g *Group) remove(origin int) (int, bool) {
	i, ok := g.find(origin)
	if !ok {
		return -1, false
	}
	holder := g.Replicas[i].Holder
	g.Replicas = slices.Delete(g.Replicas, i, i+1)
	return holder, true
}

// install places origin's replica on the member that holds the fewest
// (Fig 3) and returns that member. It refuses — the group never mirrors
// one of its own members, never holds an origin twice, and an empty group
// holds nothing.
func (g *Group) install(origin int) (int, bool) {
	if _, held := g.Holder(origin); held || g.has(origin) || len(g.Members) == 0 {
		return -1, false
	}
	to, _ := g.lightest()
	g.put(origin, to)
	return to, true
}

// loads counts the replicas each member holds, parallel to Members. A
// replica recorded against a non-member (a newcomer mid-join, a leaver
// mid-departure) counts for nobody.
func (g *Group) loads() []int {
	n := make([]int, len(g.Members))
	for _, r := range g.Replicas {
		if i, ok := slices.BinarySearch(g.Members, r.Holder); ok {
			n[i]++
		}
	}
	return n
}

// lightest returns the member holding the fewest replicas and how many, the
// lowest ID among equals; −1 for an empty group.
func (g *Group) lightest() (member, load int) {
	member = -1
	for i, n := range g.loads() {
		if member < 0 || n < load {
			member, load = g.Members[i], n
		}
	}
	return member, load
}

// heaviest returns the member holding the most replicas and how many: among
// equals the lowest ID, or the highest when lastWins.
func (g *Group) heaviest(lastWins bool) (member, load int) {
	member = -1
	for i, n := range g.loads() {
		if member < 0 || n > load || (lastWins && n == load) {
			member, load = g.Members[i], n
		}
	}
	return member, load
}
