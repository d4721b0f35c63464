package group

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// ids returns 0..n−1.
func ids(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// spread returns the gap between the heaviest and the lightest member.
func spread(g *Group) int {
	_, least := g.lightest()
	_, most := g.heaviest(false)
	return most - least
}

// piled is one group {0,1,2} whose member 0 holds all nine outside replicas.
func piled() Layout {
	g := Group{ID: 1, Members: []int{0, 1, 2}}
	for o := 10; o < 19; o++ {
		g.put(o, 0)
	}
	return Layout{m: 3, nextID: 2, groups: []Group{g}}
}

func TestGroupBasics(t *testing.T) {
	l := NewLayout(10, 4) // 4 + 3 + 3: no tiny tail
	var sizes []int
	for _, g := range l.Groups() {
		sizes = append(sizes, len(g.Members))
	}
	if !slices.Equal(sizes, []int{4, 3, 3}) {
		t.Errorf("group sizes = %v, want [4 3 3]", sizes)
	}
	if g := l.GroupOf(5); g == nil || g.ID != 1 || !slices.Equal(g.Members, []int{4, 5, 6}) {
		t.Errorf("GroupOf(5) = %+v, want group 1 [4 5 6]", g)
	}
	if l.GroupOf(99) != nil {
		t.Error("GroupOf of a stranger is not nil")
	}
	if err := l.Check(ids(10)); err != nil {
		t.Error(err)
	}
}

func TestInstallReplicaBalances(t *testing.T) {
	g := Group{ID: 1, Members: []int{0, 1, 2}}
	for o := 10; o < 16; o++ {
		if _, ok := g.install(o); !ok {
			t.Fatalf("install(%d) refused", o)
		}
	}
	for _, m := range g.Members {
		if n := len(g.HeldBy(m)); n != 2 {
			t.Errorf("member %d holds %d replicas, want 2", m, n)
		}
	}
}

func TestInstallReplicaRejectsMemberAndDuplicate(t *testing.T) {
	g := Group{ID: 1, Members: []int{0, 1}}
	if _, ok := g.install(0); ok {
		t.Error("replica of own member accepted")
	}
	if _, ok := g.install(5); !ok {
		t.Fatal("install(5) refused")
	}
	if _, ok := g.install(5); ok {
		t.Error("duplicate origin accepted")
	}
}

func TestInstallReplicaEmptyGroup(t *testing.T) {
	g := Group{ID: 9}
	if _, ok := g.install(3); ok {
		t.Error("install into empty group succeeded")
	}
}

func TestHolderOfAndLocate(t *testing.T) {
	l := NewLayout(9, 3)
	g := l.GroupOf(0)
	holder, ok := g.Holder(4)
	if !ok || !g.has(holder) {
		t.Fatalf("Holder(4) = %d, %v: want a member of %v", holder, ok, g.Members)
	}
	if !slices.Contains(g.HeldBy(holder), 4) {
		t.Errorf("HeldBy(%d) = %v misses origin 4", holder, g.HeldBy(holder))
	}
	if _, ok := g.Holder(1); ok {
		t.Error("group holds a replica of its own member 1")
	}
	if _, ok := g.Holder(99); ok {
		t.Error("Holder of unknown origin reported held")
	}
	// One holder in each of the two groups 4 is not a member of.
	if hs := l.Holders(4); len(hs) != 2 || l.GroupOf(hs[0]).ID != 0 || l.GroupOf(hs[1]).ID != 2 {
		t.Errorf("Holders(4) = %v, want one member of group 0 then one of group 2", hs)
	}
}

func TestRemoveOrigin(t *testing.T) {
	l := NewLayout(9, 3)
	held := l.Holders(8) // before 8 leaves: one holder in groups 0 and 1
	next, plan := l.Leave(8)
	if len(next.Holders(8)) != 0 {
		t.Error("origin still held after its MDS left")
	}
	var dropped []int
	for _, mv := range plan.Moves {
		if mv.Kind == Drop && mv.Origin == 8 {
			dropped = append(dropped, mv.From)
		}
	}
	if !slices.Equal(dropped, held) {
		t.Errorf("Drop moves at %v, the replica sat on %v", dropped, held)
	}
	if plan.Notices == 0 {
		t.Error("removal cost no messages")
	}
	// Removing an unknown MDS is a no-op.
	if same, p := next.Leave(8); len(p.Moves) != 0 || p.Notices != 0 || !reflect.DeepEqual(same, next) {
		t.Error("removal of an unknown MDS cost something")
	}
}

func TestCoverageError(t *testing.T) {
	l := NewLayout(6, 3)
	if err := l.Check(ids(6)); err != nil {
		t.Errorf("coverage should hold: %v", err)
	}
	if err := l.Check(ids(7)); err == nil {
		t.Error("missing origin 6 not detected")
	}
	if err := l.Check(ids(5)); err == nil {
		t.Error("replica and member of a departed MDS not detected")
	}
	double := l.clone()
	g := &double.groups[0]
	g.Replicas = append(g.Replicas, g.Replicas[len(g.Replicas)-1])
	if err := double.Check(ids(6)); err == nil {
		t.Error("double coverage not detected")
	}
	own := l.clone()
	own.groups[0].put(0, 1)
	if err := own.Check(ids(6)); err == nil {
		t.Error("replica of a groupmate not detected")
	}
	stray := l.clone()
	stray.groups[0].put(3, 5)
	if err := stray.Check(ids(6)); err == nil {
		t.Error("replica held outside the group not detected")
	}
	if err := NewLayout(6, 3).Unhold(3, 0).Check(ids(6)); err == nil {
		t.Error("un-held origin not detected")
	}
}

func TestJoinRebalancesReplicas(t *testing.T) {
	// 15 MDSs, M=4 → 4+4+4+3. The group of three mirrors 12 outsiders, 4
	// each; the newcomer joins it (the only one with room) and takes its
	// share ⌊(16−4)/4⌋ = 3.
	l := NewLayout(15, 4)
	next, plan := l.Join(15)
	g := next.GroupOf(15)
	if g == nil || !slices.Equal(g.Members, []int{12, 13, 14, 15}) {
		t.Fatalf("newcomer's group = %+v, want [12 13 14 15]", g)
	}
	if rep := plan.Report(); rep.ReplicasMigrated != 3 {
		t.Errorf("migrated %d replicas, want 3 (offload to newcomer)", rep.ReplicasMigrated)
	}
	if n := len(g.HeldBy(15)); n != 3 {
		t.Errorf("newcomer holds %d, want 3", n)
	}
	for _, mv := range plan.Moves {
		if mv.Kind != Migrate || mv.To != 15 || !g.has(mv.From) {
			t.Errorf("unexpected move %+v in a join with room", mv)
		}
	}
	if err := next.Check(ids(16)); err != nil {
		t.Errorf("coverage broken after join: %v", err)
	}
	if err := l.Check(ids(15)); err != nil {
		t.Errorf("Join wrote through its receiver: %v", err)
	}
}

func TestJoinRejectsDuplicateAndNil(t *testing.T) {
	l := NewLayout(4, 4)
	next, plan := l.Join(2)
	if len(plan.Moves) != 0 || plan.Notices != 0 || !reflect.DeepEqual(next, l) {
		t.Error("existing member accepted")
	}
	// The zero Layout has no groups to join and no M to form one under.
	next, plan = Layout{}.Join(0)
	if len(plan.Moves) != 0 || plan.Notices != 0 || len(next.Groups()) != 0 {
		t.Error("the zero Layout accepted a member")
	}
}

func TestLeaveMigratesReplicas(t *testing.T) {
	l := NewLayout(9, 3)
	had := len(l.GroupOf(1).HeldBy(1))
	if had == 0 {
		t.Fatal("setup: leaving member holds nothing")
	}
	next, plan := l.Leave(1)
	if got := plan.Count(Migrate); got != had {
		t.Errorf("migrated %d, want %d", got, had)
	}
	for _, mv := range plan.Moves {
		if mv.Kind == Migrate && (mv.From != 1 || !slices.Contains([]int{0, 2}, mv.To)) {
			t.Errorf("migration %+v does not go from the leaver to a survivor", mv)
		}
	}
	if g := next.GroupOf(0); !slices.Equal(g.Members, []int{0, 2}) {
		t.Errorf("members = %v", g.Members)
	}
	if err := next.Check([]int{0, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Errorf("coverage broken after leave: %v", err)
	}
}

func TestLeaveLastMember(t *testing.T) {
	l := NewLayout(3, 1)
	next, plan := l.Leave(0)
	if len(next.Groups()) != 2 {
		t.Fatalf("%d groups left, want 2: the group of one dissolves", len(next.Groups()))
	}
	if plan.Count(Migrate) != 0 || plan.Count(Drop) != 2 {
		t.Errorf("moves = %+v, want the two replicas of 0 dropped and nothing migrated", plan.Moves)
	}
	if err := next.Check([]int{1, 2}); err != nil {
		t.Error(err)
	}
}

func TestRebalanceEvensLoad(t *testing.T) {
	e := piled().edit()
	g := &e.groups[0]
	e.rebalance(g)
	if e.plan.Count(Migrate) != 6 {
		t.Fatalf("rebalance moved %d replicas, want 6", e.plan.Count(Migrate))
	}
	for _, m := range g.Members {
		if n := len(g.HeldBy(m)); n != 3 {
			t.Errorf("member %d holds %d, want 3", m, n)
		}
	}
	if e.plan.Notices != len(g.Members)-1 {
		t.Errorf("rebalance booked %d notices, want one IDBFA multicast to the %d other members", e.plan.Notices, len(g.Members)-1)
	}
}

func TestSplitMaintainsCoverage(t *testing.T) {
	l := NewLayout(12, 5) // 4+4+4 …
	for id := 12; id < 15; id++ {
		l, _ = l.Join(id) // … filled to 5+5+5
	}
	next, plan := l.Join(15)
	if rep := plan.Report(); rep.ReplicasMigrated == 0 || rep.Messages == 0 {
		t.Error("split reported no work")
	}
	// Sizes: A = M−⌊M/2⌋ = 3, B = ⌊M/2⌋+1 = 3.
	a, b := next.Groups()[0], next.GroupOf(15)
	if len(a.Members) != 3 || len(b.Members) != 3 {
		t.Errorf("sizes = %d/%d, want 3/3", len(a.Members), len(b.Members))
	}
	if b.ID == a.ID || b.ID != 3 {
		t.Errorf("newcomer in group %d, want the new group 3", b.ID)
	}
	if spread(&a) > 1 || spread(b) > 1 {
		t.Errorf("halves left uneven: spreads %d and %d", spread(&a), spread(b))
	}
	// Both halves, like every group, cover the full population.
	if err := next.Check(ids(16)); err != nil {
		t.Error(err)
	}
}

func TestSplitPreconditions(t *testing.T) {
	// A split happens only when no group has room.
	roomy, _ := NewLayout(7, 4).Join(7) // 4+3: joins the group of three
	if len(roomy.Groups()) != 2 {
		t.Errorf("join with room available made %d groups", len(roomy.Groups()))
	}
	full, plan := roomy.Join(8) // 4+4: splits
	if len(full.Groups()) != 3 || plan.Count(Fetch) == 0 {
		t.Errorf("join into a full system: %d groups, %d fetches", len(full.Groups()), plan.Count(Fetch))
	}
	// The victim is the lowest-ID group and its ⌊M/2⌋ highest IDs move.
	if g := full.GroupOf(8); !slices.Equal(g.Members, []int{2, 3, 8}) {
		t.Errorf("new group = %v, want [2 3 8]", g.Members)
	}
}

func TestMergeDeduplicatesAndCovers(t *testing.T) {
	// Two groups of two; one departure lets the union fit within M=3.
	l := NewLayout(4, 3)
	next, plan := l.Leave(3)
	if len(next.Groups()) != 1 || !slices.Equal(next.Groups()[0].Members, []int{0, 1, 2}) {
		t.Fatalf("groups after merge = %+v", next.Groups())
	}
	// Replicas of MDSs that became groupmates are dropped, not kept.
	if n := len(next.Groups()[0].Replicas); n != 0 {
		t.Errorf("%d replicas of internal members survived the merge", n)
	}
	if plan.Count(Drop) == 0 {
		t.Error("merge dropped nothing")
	}
	if err := next.Check(ids(3)); err != nil {
		t.Errorf("merged coverage: %v", err)
	}

	// With outsiders both sides mirrored, exactly one copy of each survives.
	l = NewLayout(8, 3) // 3+3+2
	l, _ = l.Leave(7)   // 3+3+1: no union fits within M=3 …
	if len(l.Groups()) != 3 {
		t.Fatalf("setup: %d groups", len(l.Groups()))
	}
	next, _ = l.Leave(2) // … until 2+1 does
	g := next.GroupOf(6)
	if len(next.Groups()) != 2 || !slices.Equal(g.Members, []int{0, 1, 6}) {
		t.Fatalf("groups after merge = %+v", next.Groups())
	}
	if len(g.Replicas) != 3 || spread(g) > 1 {
		t.Errorf("merged group mirrors %v, want one evenly spread copy each of 3, 4 and 5", g.Replicas)
	}
	if err := next.Check([]int{0, 1, 3, 4, 5, 6}); err != nil {
		t.Errorf("merged coverage: %v", err)
	}
}

// TestRefetchAndUnhold covers the two operations only the TCP executor
// needs: the repair plan of a restarted member, and the amendment for a
// best-effort fetch that failed.
func TestRefetchAndUnhold(t *testing.T) {
	l := NewLayout(9, 3)
	plan := l.Refetch(4)
	held := l.GroupOf(4).HeldBy(4)
	if len(plan.Moves) != len(held) || len(held) == 0 {
		t.Fatalf("Refetch plans %d moves, member 4 holds %v", len(plan.Moves), held)
	}
	for i, mv := range plan.Moves {
		if mv.Kind != Fetch || mv.To != 4 || mv.Origin != held[i] {
			t.Errorf("move %d = %+v, want a fetch of %d to 4", i, mv, held[i])
		}
	}
	amended := l.Unhold(held[0], 4)
	if _, ok := amended.GroupOf(4).Holder(held[0]); ok {
		t.Error("Unhold left the replica on the books")
	}
	if _, ok := l.GroupOf(4).Holder(held[0]); !ok {
		t.Error("Unhold wrote through its receiver")
	}
}

// schedule replays a seeded random join/leave/fail history from NewLayout(n,
// m), calling visit after every step with the layout before it, the layout
// after it, the plan and the population after it.
func schedule(seed int64, n, m, steps int, visit func(step int, before, after Layout, plan Plan, ids []int)) {
	rng := rand.New(rand.NewSource(seed))
	l := NewLayout(n, m)
	live := ids(n)
	nextID := n
	for k := 0; k < steps; k++ {
		before := l
		var plan Plan
		roll := rng.Intn(10)
		victim := rng.Intn(len(live))
		switch {
		case len(live) <= 2 || (len(live) < 3*n && roll < 4):
			l, plan = l.Join(nextID)
			live = append(live, nextID)
			nextID++
		case roll == 4 && nextID > len(live):
			// A rejoin under a retired ID, lower than some live ones: what
			// RestartMDS does after a failover.
			old := 0
			for slices.Contains(live, old) {
				old++
			}
			l, plan = l.Join(old)
			live = append(live, old)
			slices.Sort(live)
		case roll < 7:
			l, plan = l.Leave(live[victim])
			live = slices.Delete(live, victim, victim+1)
		default:
			l, plan = l.Fail(live[victim])
			live = slices.Delete(live, victim, victim+1)
		}
		visit(k, before, l, plan, live)
	}
}

// TestPlannerProperties drives 10,000-step random schedules over bare IDs
// and checks, after every step, everything the planner promises: the global
// mirror image (every MDS covered exactly once per group, no replica of a
// groupmate, every holder a member), no group above M, a spread of at most
// one in every group that was just split or merged, a plan whose moves stay
// inside one group and name only live servers, and a receiver left
// untouched. The same schedule run twice must produce identical plans.
func TestPlannerProperties(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		n, m int
	}{{1, 12, 4}, {2, 10, 1}, {3, 30, 7}, {4, 5, 3}, {5, 16, 2}} {
		var plans []Plan
		schedule(tc.seed, tc.n, tc.m, 10_000, func(step int, before, after Layout, plan Plan, live []int) {
			plans = append(plans, plan)
			if t.Failed() {
				return
			}
			if err := after.Check(live); err != nil {
				t.Fatalf("seed %d step %d: %v", tc.seed, step, err)
			}
			for i := range after.Groups() {
				g := &after.Groups()[i]
				// A split rebalances the lowest-ID group and the new one; a
				// merge, the group whose members come from two former ones.
				split := len(after.Groups()) > len(before.Groups()) &&
					(g.ID == before.Groups()[0].ID || i == len(after.Groups())-1)
				from := make(map[int]bool)
				for _, m := range g.Members {
					if old := before.GroupOf(m); old != nil {
						from[old.ID] = true
					}
				}
				if (split || len(from) > 1) && spread(g) > 1 {
					t.Fatalf("seed %d step %d: group %d %v was rebalanced to a spread of %d", tc.seed, step, g.ID, g.Members, spread(g))
				}
			}
			for _, mv := range plan.Moves {
				switch mv.Kind {
				case Migrate:
					// The receiver is a groupmate of the giver, unless the
					// giver is the leaver handing its replicas over.
					if g := after.GroupOf(mv.To); g == nil || !g.has(mv.From) && after.GroupOf(mv.From) != nil {
						t.Fatalf("seed %d step %d: %+v crosses groups", tc.seed, step, mv)
					}
				case Fetch:
					// (A merge may later make the two groupmates and drop
					// the replica again.)
					if after.GroupOf(mv.To) == nil || after.GroupOf(mv.Origin) == nil {
						t.Fatalf("seed %d step %d: %+v fetches from or to nowhere", tc.seed, step, mv)
					}
				case Drop:
					if after.GroupOf(mv.From) == nil {
						t.Fatalf("seed %d step %d: %+v drops at a server that is gone", tc.seed, step, mv)
					}
				}
			}
			if rep := plan.Report(); rep.ReplicasMigrated != plan.Count(Migrate)+plan.Count(Fetch) || rep.Messages != rep.ReplicasMigrated+plan.Notices {
				t.Fatalf("seed %d step %d: report %+v does not price plan %+v", tc.seed, step, rep, plan)
			}
		})
		k := 0
		schedule(tc.seed, tc.n, tc.m, 10_000, func(step int, _, _ Layout, plan Plan, _ []int) {
			if !reflect.DeepEqual(plan, plans[k]) && !t.Failed() {
				t.Errorf("seed %d step %d: second run planned %+v, first %+v", tc.seed, step, plan, plans[k])
			}
			k++
		})
	}
}

// TestOperationsLeaveReceiverUntouched pins the value semantics every
// published Layout relies on: a successor shares no writable state with its
// predecessor.
func TestOperationsLeaveReceiverUntouched(t *testing.T) {
	l := NewLayout(12, 4)
	frozen := l.clone()
	for i := range frozen.groups {
		frozen.groups[i].Members = slices.Clone(frozen.groups[i].Members)
	}
	l.Join(12)
	l.Leave(5)
	l.Fail(0)
	l.Unhold(4, 0)
	grown, _ := l.Join(12)
	grown.Join(13)
	grown.Leave(12)
	if !reflect.DeepEqual(l, frozen) {
		t.Errorf("an operation wrote through its receiver:\n got  %+v\n want %+v", l, frozen)
	}
}
