package core

import (
	"math/rand"
	"strconv"
	"testing"

	"ghba/internal/trace"
)

// sameTagSameHome counts pairs of model paths sharing a shard, a tag and a
// home: the interchangeable cells of colliding paths at one server, since
// CheckInvariants holds the index to exactly one cell per stored path.
func sameTagSameHome(c *Cluster, model map[string]int) int {
	type cell struct {
		shard int
		tag   uint32
		home  int
	}
	seen := make(map[cell]int)
	pairs := 0
	for p, home := range model {
		shard, tag := c.homes.Locate(p)
		k := cell{shard, tag, home}
		pairs += seen[k]
		seen[k]++
	}
	return pairs
}

// TestHomeIndexMatchesModel runs seeded create/delete/re-create/RemoveMDS/
// FailMDS/AddMDS sequences against a reference map[string]int, with tags
// narrowed to 4 bits so that tag collisions — same tag at other homes and
// same tag at one home — are the rule. After every step HomeOf must answer
// the model for every path of the pool, FileCount its size, and
// CheckInvariants must hold exactly.
func TestHomeIndexMatchesModel(t *testing.T) {
	const pool, steps = 400, 1_500
	paths := make([]string, pool)
	for i := range paths {
		paths[i] = "/m/d" + strconv.Itoa(i%7) + "/f" + strconv.Itoa(i)
	}
	for _, seed := range []int64{1, 2, 3} {
		c, err := New(smallConfig(4, 2))
		if err != nil {
			t.Fatal(err)
		}
		c.homes.SetTagBits(4)
		c.Populate(func(fn func(string) bool) {
			for i := 0; i < pool; i += 2 {
				fn(paths[i])
			}
		})
		// The model starts from the stores, not from the index under test.
		model := make(map[string]int)
		for _, id := range c.MDSIDs() {
			for _, p := range c.Node(id).Store().Paths() {
				model[p] = id
			}
		}
		rng := rand.New(rand.NewSource(seed))
		check := func(step int, what string) {
			t.Helper()
			if got := c.FileCount(); got != len(model) {
				t.Fatalf("seed %d step %d (%s): FileCount = %d, model %d", seed, step, what, got, len(model))
			}
			for _, p := range paths {
				want, ok := model[p]
				if !ok {
					want = -1
				}
				if got := c.HomeOf(p); got != want {
					t.Fatalf("seed %d step %d (%s): HomeOf(%s) = %d, model %d", seed, step, what, p, got, want)
				}
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("seed %d step %d (%s): %v", seed, step, what, err)
			}
		}
		check(0, "populate")
		collisions := 0
		for step := 1; step <= steps; step++ {
			p := paths[rng.Intn(pool)]
			home, present := model[p]
			var what string
			switch r := rng.Intn(100); {
			case r < 45:
				what = "create " + p
				res := c.ApplyWith(rng, trace.Record{Op: trace.OpCreate, Path: p})
				if present {
					if !res.Found || res.Home != home {
						t.Fatalf("seed %d step %d: create of present %s = %+v, model home %d", seed, step, p, res, home)
					}
				} else {
					model[p] = res.Home
				}
			case r < 85:
				what = "delete " + p
				res := c.ApplyWith(rng, trace.Record{Op: trace.OpDelete, Path: p})
				if res.Found != present || (present && res.Home != home) {
					t.Fatalf("seed %d step %d: delete of %s = %+v, model (%d, %v)", seed, step, p, res, home, present)
				}
				delete(model, p)
			case r < 93:
				what = "lookup " + p
				res := c.LookupWith(rng, p, -1)
				if res.Found != present || (present && res.Home != home) {
					t.Fatalf("seed %d step %d: lookup of %s = %+v, model (%d, %v)", seed, step, p, res, home, present)
				}
			case r < 96 && c.NumMDS() > 2:
				ids := c.MDSIDs()
				id := ids[rng.Intn(len(ids))]
				what = "RemoveMDS " + strconv.Itoa(id)
				if _, err := c.RemoveMDS(id); err != nil {
					t.Fatal(err)
				}
				for q, h := range model {
					if h == id {
						if model[q] = c.HomeOf(q); model[q] < 0 || model[q] == id {
							t.Fatalf("seed %d step %d: %s re-homed to %d", seed, step, q, model[q])
						}
					}
				}
			case r < 98 && c.NumMDS() > 2:
				ids := c.MDSIDs()
				id := ids[rng.Intn(len(ids))]
				what = "FailMDS " + strconv.Itoa(id)
				lost := 0
				for q, h := range model {
					if h == id {
						delete(model, q)
						lost++
					}
				}
				rep, err := c.FailMDS(id)
				if err != nil {
					t.Fatal(err)
				}
				if rep.FilesLost != lost {
					t.Fatalf("seed %d step %d: FailMDS lost %d files, model %d", seed, step, rep.FilesLost, lost)
				}
			default:
				if c.NumMDS() >= 7 {
					continue
				}
				what = "AddMDS"
				if _, _, err := c.AddMDS(); err != nil {
					t.Fatal(err)
				}
			}
			check(step, what)
			collisions = max(collisions, sameTagSameHome(c, model))
		}
		if collisions == 0 {
			t.Errorf("seed %d: no two paths ever shared a tag and a home; the 4-bit seam is not biting", seed)
		}
		t.Logf("seed %d: up to %d same-tag same-home pairs, %d files at the end", seed, collisions, len(model))
	}
}

// TestHomeIndexZeroAlloc pins the allocation contract of the index on the
// paths the workloads run: HomeOf, a create of a present path (it degrades
// to a lookup), a create-then-delete cycle, and a re-home, which moves one
// cell in place and builds nothing per path.
func TestHomeIndexZeroAlloc(t *testing.T) {
	c := newPopulated(t, 6, 3, 500)
	const present, cycle = "/f42", "/cycle"
	home := c.HomeOf(present)
	a := c.Node(home)
	b := c.Node((home + 1) % 6)
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"HomeOf", func() {
			if c.HomeOf(present) != home || c.HomeOf("/absent") != -1 {
				t.Fatal("HomeOf wrong")
			}
		}},
		{"PutIfAbsentThen present", func() {
			if got, ok := c.homes.PutIfAbsentThen(present, b.ID(), c.fleet.Load().Holds, func() { t.Fatal("claimed a present path") }); ok || got != home {
				t.Fatalf("PutIfAbsentThen(present) = %d, %v", got, ok)
			}
		}},
		{"PutIfAbsentThen+RemoveThen", func() {
			if _, ok := c.homes.PutIfAbsentThen(cycle, home, c.fleet.Load().Holds, func() { a.AddFile(cycle) }); !ok {
				t.Fatal("claim failed")
			}
			if got, ok := c.homes.RemoveThen(cycle, c.fleet.Load().Holds, func(int) { a.DeleteFile(cycle) }); !ok || got != home {
				t.Fatalf("RemoveThen = %d, %v", got, ok)
			}
		}},
		{"rehome", func() {
			if !c.homes.Rehome(present, a.ID(), b.ID(), func(_ int, p string) bool { return a.HasFile(p) }, func() { b.AddFile(present) }) {
				t.Fatal("rehome a→b missed")
			}
			a.DeleteFile(present)
			if !c.homes.Rehome(present, b.ID(), a.ID(), func(_ int, p string) bool { return b.HasFile(p) }, func() { a.AddFile(present) }) {
				t.Fatal("rehome b→a missed")
			}
			b.DeleteFile(present)
		}},
	} {
		if allocs := testing.AllocsPerRun(1_000, tc.op); allocs != 0 {
			t.Errorf("%s allocates %.2f objects/op, want 0", tc.name, allocs)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
