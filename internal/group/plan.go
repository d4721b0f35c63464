package group

import "slices"

// Kind names what a Move does to one replica.
type Kind uint8

// The three moves every reconfiguration is made of.
const (
	// Migrate moves Origin's replica from member From to member To of the
	// same group.
	Migrate Kind = iota
	// Fetch gives member To the snapshot Origin last shipped — bit for bit
	// what every other holder of that replica already has.
	Fetch
	// Drop makes member From discard its replica of Origin.
	Drop
)

// Move is one step of a Plan.
type Move struct {
	Kind   Kind
	Origin int // the MDS whose filter the replica summarizes
	From   int // Migrate, Drop: the member giving the replica up; Fetch: Origin itself
	To     int // Migrate, Fetch: the member receiving it
}

// Plan is what turns a Layout into its successor: the replica moves, in the
// order an executor must perform them, plus the protocol messages that carry
// no replica.
type Plan struct {
	Moves []Move
	// Notices counts the messages beside the moves themselves: IDBFA
	// multicasts, the IDBFA handoff to a newcomer, the announcement of a new
	// group, heart-beat detection, deletion requests, and the newcomer's own
	// filter going to one member of every other group.
	Notices int
}

// Report tallies the cost of a reconfiguration in the units the paper
// charts: replicas moved over the network (Fig 11) and total messages
// exchanged (Fig 15).
type Report struct {
	// ReplicasMigrated counts Bloom-filter replicas that crossed the
	// network to a new holder.
	ReplicasMigrated int
	// Messages counts all protocol messages: the migrations plus Notices.
	Messages int
}

// Count returns how many moves of the given kind the plan holds.
func (p Plan) Count(k Kind) int {
	n := 0
	for _, mv := range p.Moves {
		if mv.Kind == k {
			n++
		}
	}
	return n
}

// Report prices the plan.
func (p Plan) Report() Report {
	migrated := p.Count(Migrate) + p.Count(Fetch)
	return Report{ReplicasMigrated: migrated, Messages: migrated + p.Notices}
}

// edit is a private copy of a Layout being rewritten, and the Plan that
// performs the rewrite on real servers.
type edit struct {
	Layout
	plan Plan
}

func (l Layout) edit() *edit { return &edit{Layout: l.clone()} }

func (e *edit) done() (Layout, Plan) { return e.Layout, e.plan }

func (e *edit) migrate(g *Group, origin, from, to int) {
	g.put(origin, to)
	e.plan.Moves = append(e.plan.Moves, Move{Kind: Migrate, Origin: origin, From: from, To: to})
}

// fetch has g mirror origin on its lightest member, unless it is a member or
// mirrored already. Reports whether a replica was placed.
func (e *edit) fetch(g *Group, origin int) bool {
	to, ok := g.install(origin)
	if ok {
		e.plan.Moves = append(e.plan.Moves, Move{Kind: Fetch, Origin: origin, From: origin, To: to})
	}
	return ok
}

// Join brings MDS id into the system (Section 3.1–3.2): it joins the fullest
// group that still has room — a tiny group would make it absorb nearly half
// of that group's replicas — or, when every group is full, splits the
// lowest-ID group (the paper picks a random one). Every other group then
// mirrors the newcomer on its lightest member; that replica is not a move —
// the executor ships the newcomer's filter to Holders(id) once the plan ran.
// Joining a current member changes nothing, and neither does joining the
// zero Layout, which has no M to form a group under.
func (l Layout) Join(id int) (Layout, Plan) {
	if len(l.groups) == 0 || l.GroupOf(id) != nil {
		return l, Plan{}
	}
	e := l.edit()
	if !e.joinWithRoom(id) {
		e.split(id)
	}
	for i := range e.groups {
		g := &e.groups[i]
		if _, ok := g.install(id); ok {
			e.plan.Notices += len(g.Members) // the filter, then the IDBFA multicast
		}
	}
	return e.done()
}

// joinWithRoom is the light-weight migration of Fig 4a: the newcomer's fair
// share ⌊(N−M′)/(M′+1)⌋ of the group's replicas is taken one at a time from
// whichever member is heaviest at that moment, lowest origin first.
func (e *edit) joinWithRoom(id int) bool {
	var g *Group
	for i := range e.groups {
		if c := &e.groups[i]; len(c.Members) < e.m && (g == nil || len(c.Members) > len(g.Members)) {
			g = c
		}
	}
	if g == nil {
		return false
	}
	size := len(g.Members) + 1
	for share := (e.numMDS() + 1 - size) / size; share > 0; share-- {
		from, load := g.heaviest(false)
		if load == 0 {
			break
		}
		e.migrate(g, g.HeldBy(from)[0], from, id)
	}
	g.Members = insert(g.Members, id)
	e.plan.Notices += size // IDBFA handoff to the newcomer, multicast to the rest
	return true
}

// split divides the lowest-ID group for a newcomer no group has room for
// (Fig 5a): its ⌊M/2⌋ highest-ID members move, replicas in hand, into a new
// group with the newcomer. Each side then fetches what it no longer mirrors
// — the outside origins only the other side holds, and the other side's
// members, who ceased being groupmates — and evens its load.
func (e *edit) split(id int) {
	keep := len(e.groups[0].Members) - len(e.groups[0].Members)/2
	e.groups = append(e.groups, Group{ID: e.nextID, Members: insert(e.groups[0].Members[keep:], id)})
	e.nextID++
	a, b := &e.groups[0], &e.groups[len(e.groups)-1]
	a.Members = a.Members[:keep:keep]
	stay := a.Replicas[:0]
	for _, r := range a.Replicas {
		if b.has(r.Holder) {
			b.Replicas = append(b.Replicas, r)
		} else {
			stay = append(stay, r)
		}
	}
	a.Replicas = stay

	sides := [2][2]*Group{{a, b}, {b, a}}
	for _, s := range sides {
		for _, r := range s[1].Replicas {
			e.fetch(s[0], r.Origin)
		}
	}
	for _, s := range sides {
		for _, m := range s[1].Members {
			e.fetch(s[0], m)
		}
	}
	e.rebalance(a)
	e.rebalance(b)
	// One IDBFA multicast in each half, and the new group's announcement.
	e.plan.Notices += len(a.Members) - 1 + len(b.Members) - 1 + 1
}

// rebalance moves replicas from the heaviest member (the highest ID among
// equals) to the lightest, lowest origin first, until they differ by at most
// one.
func (e *edit) rebalance(g *Group) {
	moved := false
	for len(g.Members) > 1 {
		to, least := g.lightest()
		from, most := g.heaviest(true)
		if most-least <= 1 {
			break
		}
		e.migrate(g, g.HeldBy(from)[0], from, to)
		moved = true
	}
	if moved {
		e.plan.Notices += len(g.Members) - 1 // batched IDBFA multicast
	}
}

// Leave retires MDS id gracefully (Fig 4b): its replicas migrate, lowest
// origin first, each to the lightest remaining member of its group — or
// evaporate with the group if it was the last — every other group drops its
// replica of id, and shrunken groups merge while a union fits within M.
// Retiring a non-member changes nothing.
func (l Layout) Leave(id int) (Layout, Plan) {
	if l.GroupOf(id) == nil {
		return l, Plan{}
	}
	e := l.edit()
	g := e.GroupOf(id)
	held := g.HeldBy(id)
	g.Members = without(g.Members, id)
	for _, origin := range held {
		if to, _ := g.lightest(); to >= 0 {
			e.migrate(g, origin, id, to)
		}
	}
	if n := len(g.Members); n > 0 {
		e.plan.Notices += n - 1 // batched IDBFA multicast
	}
	e.forget(id)
	e.mergeWhileFits()
	return e.done()
}

// Fail removes a crashed MDS (Section 4.5). Nothing migrates from it: the
// replicas it held are gone, so after heart-beats detect the crash and every
// other group drops its replica of id, the survivors of its group fetch the
// lost origins again, lowest first, each onto their lightest member. Groups
// then merge as after a graceful departure. Failing a non-member changes
// nothing.
func (l Layout) Fail(id int) (Layout, Plan) {
	if l.GroupOf(id) == nil {
		return l, Plan{}
	}
	e := l.edit()
	g := e.GroupOf(id)
	gid, lost := g.ID, g.HeldBy(id)
	e.plan.Notices += len(g.Members) - 1 // heart-beat detection by the groupmates
	g.Members = without(g.Members, id)
	for _, origin := range lost {
		g.remove(origin)
	}
	e.forget(id)
	for i := range e.groups {
		if g := &e.groups[i]; g.ID == gid {
			for _, origin := range lost {
				if e.fetch(g, origin) {
					e.plan.Notices += len(g.Members) - 1 // IDBFA multicast
				}
			}
		}
	}
	e.mergeWhileFits()
	return e.done()
}

// forget closes a departure: a group left without members dissolves, and
// every remaining group drops its replica of id.
func (e *edit) forget(id int) {
	e.groups = slices.DeleteFunc(e.groups, func(g Group) bool { return len(g.Members) == 0 })
	for i := range e.groups {
		g := &e.groups[i]
		if from, ok := g.remove(id); ok {
			e.plan.Moves = append(e.plan.Moves, Move{Kind: Drop, Origin: id, From: from})
			e.plan.Notices += len(g.Members) // deletion request, then the IDBFA multicast
		}
	}
}

// mergeWhileFits merges the two smallest groups (the lower ID among equals)
// for as long as their union fits within M — Section 3.2's "this process
// repeats until no merging can be performed".
func (e *edit) mergeWhileFits() {
	for len(e.groups) > 1 {
		size := func(i int) int { return len(e.groups[i].Members) }
		a, b := 0, 1 // the smallest and the second smallest
		if size(b) < size(a) {
			a, b = b, a
		}
		for i := 2; i < len(e.groups); i++ {
			if size(i) < size(a) {
				a, b = i, a
			} else if size(i) < size(b) {
				b = i
			}
		}
		if size(a)+size(b) > e.m {
			return
		}
		e.merge(b, a)
	}
}

// merge has group index into absorb group index from (Fig 5b). The union
// holds two copies of everything both sides mirrored and replicas of MDSs
// that are now groupmates: member by member in ID order, lowest origin
// first, a replica of a groupmate or of an origin already kept is dropped.
// The survivors are then evened out.
func (e *edit) merge(into, from int) {
	g := &e.groups[into]
	all := append(g.Replicas, e.groups[from].Replicas...)
	slices.SortFunc(all, func(x, y Replica) int {
		if x.Holder != y.Holder {
			return x.Holder - y.Holder
		}
		return x.Origin - y.Origin
	})
	for _, m := range e.groups[from].Members {
		g.Members = insert(g.Members, m)
	}
	g.Replicas = nil
	for _, r := range all {
		if _, kept := g.Holder(r.Origin); kept || g.has(r.Origin) {
			e.plan.Moves = append(e.plan.Moves, Move{Kind: Drop, Origin: r.Origin, From: r.Holder})
		} else {
			g.put(r.Origin, r.Holder)
		}
	}
	e.groups = slices.Delete(e.groups, from, from+1)
	if from < into {
		into--
	}
	g = &e.groups[into]
	e.rebalance(g)
	e.plan.Notices += len(g.Members) - 1 // IDBFA multicast
}

// Refetch plans the repair of a member that restarted with an empty replica
// array: every replica it is on record as holding is fetched again. The
// layout itself does not change.
func (l Layout) Refetch(id int) Plan {
	var p Plan
	if g := l.GroupOf(id); g != nil {
		for _, origin := range g.HeldBy(id) {
			p.Moves = append(p.Moves, Move{Kind: Fetch, Origin: origin, From: origin, To: id})
		}
	}
	return p
}

// insert returns a fresh ascending slice equal to xs plus v.
func insert(xs []int, v int) []int {
	i, _ := slices.BinarySearch(xs, v)
	return slices.Insert(slices.Clone(xs), i, v)
}

// without returns a fresh slice equal to xs minus v.
func without(xs []int, v int) []int {
	return slices.DeleteFunc(slices.Clone(xs), func(x int) bool { return x == v })
}
