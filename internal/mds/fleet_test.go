package mds

import (
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ghba/internal/group"
	"ghba/internal/homeindex"
)

// newTestFleet builds n nodes in groups of at most m, homes files paths
// round-robin in their stores and in a home index, and seeds every replica:
// a fleet Check must pass.
func newTestFleet(t *testing.T, n, m, files int) (*Fleet, *homeindex.Index) {
	t.Helper()
	nodes := make(map[int]*Node, n)
	for id := 0; id < n; id++ {
		nodes[id] = newTestNode(t, id)
	}
	homes := homeindex.New()
	for i := 0; i < files; i++ {
		p := "/f" + strconv.Itoa(i)
		nodes[i%n].AddFile(p)
		homes.Insert(p, i%n)
	}
	f := NewFleet(nodes, group.NewLayout(n, m))
	f.Seed()
	return f, homes
}

func TestFleetSnapshot(t *testing.T) {
	f, homes := newTestFleet(t, 7, 3, 50)
	if got := f.IDs(); len(got) != 7 || got[0] != 0 || got[6] != 6 {
		t.Fatalf("IDs() = %v, want 0..6", got)
	}
	for _, id := range f.IDs() {
		members := f.Members(id)
		if !slices.Contains(members, id) {
			t.Errorf("MDS %d is missing from its own group %v", id, members)
		}
		if f.Node(id) == nil || f.Node(id).ID() != id {
			t.Errorf("Node(%d) = %v", id, f.Node(id))
		}
	}
	if f.Node(99) != nil || f.Members(99) != nil {
		t.Error("an ID outside the fleet resolves")
	}
	if !f.Holds(3, "/f3") || f.Holds(4, "/f3") || f.Holds(99, "/f3") {
		t.Error("Holds confirms a path away from its store")
	}
	if home, ok := homes.Get("/f10", f.Holds); !ok || home != 3 {
		t.Errorf("the index resolves /f10 to %d, %v through Holds; want 3", home, ok)
	}
}

// TestFleetLargeIDs pins the sparse index: an ID far beyond the member count
// (mdsd -id takes any uint32) must resolve as the small ones do, and IDs
// around it must not. The small-ID fleet of the same shape uses the dense
// index.
func TestFleetLargeIDs(t *testing.T) {
	const big = 1 << 31
	if f, _ := newTestFleet(t, 7, 3, 0); f.sparse != nil || f.dense == nil {
		t.Fatal("a fleet numbered 0..6 does not use the dense index")
	}
	nodes := map[int]*Node{big: newTestNode(t, big)}
	for id := 0; id < 3; id++ {
		nodes[id] = newTestNode(t, id)
	}
	homes := homeindex.New()
	for i, id := range []int{0, 1, 2, big} {
		p := "/f" + strconv.Itoa(i)
		nodes[id].AddFile(p)
		homes.Insert(p, id)
	}
	layout, _ := group.NewLayout(3, 4).Join(big)
	f := NewFleet(nodes, layout)
	f.Seed()
	if f.sparse == nil || f.dense != nil {
		t.Fatal("a fleet with ID 1<<31 uses the dense index")
	}
	if got, want := f.IDs(), []int{0, 1, 2, big}; !slices.Equal(got, want) {
		t.Fatalf("IDs() = %v, want %v", got, want)
	}
	for _, id := range f.IDs() {
		if n := f.Node(id); n == nil || n.ID() != id {
			t.Errorf("Node(%d) = %v", id, n)
		}
		if got := f.Members(id); !slices.Equal(got, []int{0, 1, 2, big}) {
			t.Errorf("Members(%d) = %v", id, got)
		}
	}
	for _, id := range []int{-1, 3, big - 1, big + 1} {
		if f.Node(id) != nil || f.Members(id) != nil {
			t.Errorf("ID %d outside the fleet resolves", id)
		}
	}
	if !f.Holds(big, "/f3") || f.Holds(0, "/f3") || f.Holds(big, "/f0") {
		t.Error("Holds confirms a path away from its store")
	}
	if err := f.Check(homes); err != nil {
		t.Errorf("Check: %v", err)
	}
}

// TestFleetSeedShipsEveryOrigin pins the bulk seeding: after Seed every
// origin has shipped (no drift left), and each holder the layout names
// carries exactly that snapshot.
func TestFleetSeedShipsEveryOrigin(t *testing.T) {
	f, _ := newTestFleet(t, 7, 3, 50)
	for _, id := range f.IDs() {
		if d := f.Node(id).DeltaBits(); d != 0 {
			t.Errorf("MDS %d drifted %d bits after Seed", id, d)
		}
		for _, holder := range f.layout.Holders(id) {
			if f.Node(holder).Replicas().Get(id) != f.Node(id).Shipped() {
				t.Errorf("MDS %d does not hold %d's shipped snapshot", holder, id)
			}
		}
	}
}

// TestFleetCheckCatchesEachViolation plants one violation of each class the
// check guards into a sound fleet and requires the check to name it.
func TestFleetCheckCatchesEachViolation(t *testing.T) {
	cases := []struct {
		name  string
		plant func(t *testing.T, f *Fleet, homes *homeindex.Index)
		want  string
	}{
		{"replica the layout does not record", func(t *testing.T, f *Fleet, _ *homeindex.Index) {
			// A copy of a groupmate's filter: its own group holds no
			// replica of it.
			g := f.layout.Groups()[0]
			a, b := g.Members[0], g.Members[1]
			f.Node(a).InstallReplica(b, f.Node(b).Shipped())
		}, "the layout records"},
		{"replica drifted from the origin's last ship", func(t *testing.T, f *Fleet, _ *homeindex.Index) {
			r := f.layout.Groups()[0].Replicas[0]
			stale := f.Node(r.Origin).Shipped().Clone()
			stale.AddString("/never-shipped")
			f.Node(r.Holder).InstallReplica(r.Origin, stale)
		}, "last shipped"},
		{"path stored away from its index home", func(t *testing.T, f *Fleet, _ *homeindex.Index) {
			if !f.Node(1).DeleteFile("/f1") {
				t.Fatal("/f1 is not at MDS 1")
			}
			f.Node(2).AddFile("/f1")
		}, "resolves to"},
		{"index cell no stored path accounts for", func(t *testing.T, _ *Fleet, homes *homeindex.Index) {
			homes.Insert("/ghost", 4)
		}, "no stored path accounts for"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, homes := newTestFleet(t, 7, 3, 50)
			if err := f.Check(homes); err != nil {
				t.Fatalf("sound fleet: %v", err)
			}
			tc.plant(t, f, homes)
			err := f.Check(homes)
			if err == nil {
				t.Fatal("Check passed a planted violation")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Check = %q, want it to say %q", err, tc.want)
			}
		})
	}
}

// A server the layout places in no group fails the check on the books,
// before any replica is read.
func TestFleetCheckCatchesUnplacedServer(t *testing.T) {
	nodes := map[int]*Node{}
	for id := 0; id < 4; id++ {
		nodes[id] = newTestNode(t, id)
	}
	f := NewFleet(nodes, group.NewLayout(3, 3))
	if err := f.Check(homeindex.New()); err == nil {
		t.Fatal("Check passed MDS 3, which no group places")
	}
}

// TestFleetSuccessorLeavesPredecessorIntact pins the copy independence
// lookups rely on: building a successor, by a join and by a leave, changes
// none of the predecessor's answers, since lookups may still be walking it.
func TestFleetSuccessorLeavesPredecessorIntact(t *testing.T) {
	type view struct {
		ids     []int
		nodes   map[int]*Node
		members map[int][]int
		layout  group.Layout
	}
	capture := func(f *Fleet) view {
		v := view{ids: slices.Clone(f.IDs()), nodes: map[int]*Node{}, members: map[int][]int{}, layout: f.Layout()}
		for id := 0; id < 10; id++ {
			v.nodes[id] = f.Node(id)
			v.members[id] = slices.Clone(f.Members(id))
		}
		return v
	}
	same := func(t *testing.T, f *Fleet, want view) {
		t.Helper()
		got := capture(f)
		if !slices.Equal(got.ids, want.ids) {
			t.Errorf("IDs() = %v, was %v", got.ids, want.ids)
		}
		for id := range want.nodes {
			if got.nodes[id] != want.nodes[id] {
				t.Errorf("Node(%d) = %p, was %p", id, got.nodes[id], want.nodes[id])
			}
			if !slices.Equal(got.members[id], want.members[id]) {
				t.Errorf("Members(%d) = %v, was %v", id, got.members[id], want.members[id])
			}
		}
		if !reflect.DeepEqual(got.layout, want.layout) {
			t.Errorf("Layout() = %+v, was %+v", got.layout.Groups(), want.layout.Groups())
		}
	}

	f, _ := newTestFleet(t, 7, 3, 50)
	t.Run("join", func(t *testing.T) {
		before := capture(f)
		layout, _ := f.Layout().Join(7)
		next := f.Successor(layout, newTestNode(t, 7), -1)
		same(t, f, before)
		if next.Node(7) == nil || len(next.IDs()) != 8 {
			t.Errorf("successor IDs() = %v, want 7 joined", next.IDs())
		}
	})
	t.Run("leave", func(t *testing.T) {
		before := capture(f)
		layout, _ := f.Layout().Leave(3)
		next := f.Successor(layout, nil, 3)
		same(t, f, before)
		if next.Node(3) != nil || slices.Contains(next.IDs(), 3) || next.Members(3) != nil {
			t.Errorf("successor still names MDS 3: IDs() = %v", next.IDs())
		}
	})
}

// TestFleetDrawIsTheUniformIndexDraw pins Draw to the one draw both engines
// must agree on, IDs()[r.Intn(len(IDs()))], draw for draw, on a fleet whose
// IDs are not contiguous.
func TestFleetDrawIsTheUniformIndexDraw(t *testing.T) {
	f, _ := newTestFleet(t, 7, 3, 0)
	layout, _ := f.Layout().Leave(2)
	f = f.Successor(layout, nil, 2)
	ids := f.IDs()
	if slices.Contains(ids, 2) || len(ids) != 6 || !slices.IsSorted(ids) {
		t.Fatalf("IDs() = %v, want 0..6 without 2, sorted", ids)
	}
	a, b := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	for i := 0; i < 1000; i++ {
		if got, want := f.Draw(a), ids[b.Intn(len(ids))]; got != want {
			t.Fatalf("draw %d: Draw = %d, the index draw = %d", i, got, want)
		}
	}
}
