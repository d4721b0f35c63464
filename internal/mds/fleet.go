package mds

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"

	"ghba/internal/group"
	"ghba/internal/homeindex"
)

// Fleet is one immutable membership snapshot: the sorted server IDs, each
// server's node, the group layout and each member's group, frozen at a
// reconfiguration boundary. It is each engine's one record of membership:
// the simulator's core.Cluster publishes one over its in-memory nodes, the
// TCP coordinator one over its daemons' nodes, each through an atomic pointer,
// and a reconfiguration builds the next (Successor), never edits the current
// one, so the read path navigates it without a lock. The nodes it points to
// are not snapshot memory: they keep evolving, each synchronizing its own
// store and filters, and writers reach them through Node.
type Fleet struct {
	ids    []int
	nodes  map[int]*Node
	layout group.Layout
	// Each ID's seat: its node and the sorted member IDs of its group — the
	// L3 multicast targets seen from that entry; the slices are the
	// layout's, shared between co-grouped entries and never written. The
	// seats sit in dense, indexed by ID, when the IDs are small and
	// non-negative, as both engines number their servers; otherwise (an ID
	// far beyond the member count) in sparse, which is nil in the dense
	// case.
	dense  []seat
	sparse map[int]seat
}

// seat is one ID's entry in a fleet's index.
type seat struct {
	node    *Node
	members []int
}

// denseSlack bounds the dense index: it is used when every ID lies in
// [0, 2·seats+denseSlack), so it holds at most one empty seat per member
// beyond a fixed few.
const denseSlack = 64

// NewFleet freezes nodes (ID → node, which the fleet keeps: the caller must
// not modify the map afterwards) and layout into a snapshot. Every ID of
// nodes must be a member of layout.
func NewFleet(nodes map[int]*Node, layout group.Layout) *Fleet {
	f := &Fleet{
		ids:    make([]int, 0, len(nodes)),
		nodes:  nodes,
		layout: layout,
	}
	for id := range nodes {
		f.ids = append(f.ids, id)
	}
	sort.Ints(f.ids)
	seats := make(map[int]seat, len(nodes))
	for _, g := range layout.Groups() {
		for _, id := range g.Members {
			seats[id] = seat{members: g.Members}
		}
	}
	for id, n := range nodes {
		seats[id] = seat{node: n, members: seats[id].members}
	}
	size := 0
	for id := range seats {
		if id < 0 || id >= 2*len(seats)+denseSlack {
			f.sparse = seats
			return f
		}
		size = max(size, id+1)
	}
	f.dense = make([]seat, size)
	for id, st := range seats {
		f.dense[id] = st
	}
	return f
}

// seat returns id's seat, empty when id is neither a member nor in the
// layout.
func (f *Fleet) seat(id int) seat {
	if f.sparse != nil {
		return f.sparse[id]
	}
	if uint(id) < uint(len(f.dense)) {
		return f.dense[id]
	}
	return seat{}
}

// Successor builds the fleet that follows f over layout: f's nodes, less the
// node of ID leave (if any) and with join added (if non-nil; it replaces a
// node of its ID). It copies f's node map, never writes it: lookups may still
// be walking f.
func (f *Fleet) Successor(layout group.Layout, join *Node, leave int) *Fleet {
	nodes := maps.Clone(f.nodes)
	delete(nodes, leave)
	if join != nil {
		nodes[join.ID()] = join
	}
	return NewFleet(nodes, layout)
}

// IDs returns the sorted server IDs. The slice is shared and never written.
func (f *Fleet) IDs() []int { return f.ids }

// Layout returns the group layout, an immutable value.
func (f *Fleet) Layout() group.Layout { return f.layout }

// Draw returns a uniformly drawn server ID: one r.Intn over the sorted IDs.
// It is the one draw both engines make for an entry point or a new file's
// home, so a simulation and a prototype driven by equally seeded RNGs pick the
// same server at every step.
func (f *Fleet) Draw(r *rand.Rand) int { return f.ids[r.Intn(len(f.ids))] }

// Node returns server id's node, or nil when id is not a member.
func (f *Fleet) Node(id int) *Node { return f.seat(id).node }

// Members returns the sorted member IDs of id's group. The slice is shared
// and never written.
func (f *Fleet) Members(id int) []int { return f.seat(id).members }

// Holds is the home index's confirmation step: whether server home stores
// path. A home outside the fleet does not confirm.
func (f *Fleet) Holds(home int, path string) bool {
	n := f.Node(home)
	return n != nil && n.HasFile(path)
}

// Seed ships every server's filter to the holders the layout names — one
// Ship per origin, its snapshot installed at each holder — bringing every
// replica up to date after a bulk load. It books nothing: bulk loading is not
// update traffic. The caller excludes every other shipper. It writes to the
// nodes only, never to the fleet's own memory.
func (f *Fleet) Seed() {
	for _, origin := range f.ids {
		snap := f.Node(origin).Ship()
		for _, holder := range f.layout.Holders(origin) {
			f.Node(holder).InstallReplica(origin, snap)
		}
	}
}

// Check verifies the global-mirror-image invariant on the books and on the
// servers, and the namespace against homes, exactly. On the books, the layout
// is sound for the fleet's IDs. On the servers, every member's replica array
// holds exactly the origins the layout records — an extra copy is an orphan
// no ship refreshes and no failover drops — and every replica is bit for bit
// what its origin last shipped, so the XOR-delta drift the origin tracks
// bounds every holder's staleness. On the namespace, every path a server
// stores resolves through homes to that server, and homes holds no cell a
// stored path does not account for (homeindex.Index.Check). The caller
// excludes every mutation and reconfiguration.
func (f *Fleet) Check(homes *homeindex.Index) error {
	if err := f.layout.Check(f.ids); err != nil {
		return err
	}
	for _, g := range f.layout.Groups() {
		for _, m := range g.Members {
			if have, want := f.nodes[m].Replicas().IDs(), g.HeldBy(m); !slices.Equal(have, want) {
				return fmt.Errorf("group %d %v: MDS %d stores replicas of %v, the layout records %v", g.ID, g.Members, m, have, want)
			}
		}
		for _, r := range g.Replicas {
			replica := f.nodes[r.Holder].Replicas().Get(r.Origin)
			if drift, err := replica.XorBits(f.nodes[r.Origin].Shipped()); err != nil || drift != 0 {
				return fmt.Errorf("group %d: MDS %d's replica of %d is %d bits from what %d last shipped (%v)", g.ID, r.Holder, r.Origin, drift, r.Origin, err)
			}
		}
	}
	stored := func(id int) []string { return f.nodes[id].Store().Paths() }
	return homes.Check(f.ids, stored, f.Holds)
}
