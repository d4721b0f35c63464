package homeindex

import (
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// model is the reference FuzzHomeIndexOps runs the index against: the
// servers' stores, which the index's confirmation step asks, and the
// map[string]int ground truth the index replaces.
type model struct {
	stores map[int]map[string]bool
	homes  map[string]int
}

func (m *model) holds(home int, path string) bool { return m.stores[home][path] }

func (m *model) stored(id int) []string {
	var out []string
	for p := range m.stores[id] {
		out = append(out, p)
	}
	slices.Sort(out)
	return out
}

// FuzzHomeIndexOps drives random put, remove, rehome, scrub, insert and
// remove-at steps at 4-bit tags, so that colliding tags at one home and at
// several are the rule, against a model map; after every step each path of
// the pool must resolve as the model says, Len must equal the model's size,
// Candidates must name the model's home, and Check must pass against the
// model's stores. Each step is three bytes: operation, path, home.
func FuzzHomeIndexOps(f *testing.F) {
	const servers, pool = 5, 48
	f.Add([]byte{0, 1, 2, 0, 17, 2, 1, 1, 0, 2, 17, 3, 3, 2, 0})
	f.Add([]byte{4, 5, 1, 4, 21, 1, 5, 5, 1, 0, 37, 4, 2, 37, 1, 3, 1, 0})
	rng := rand.New(rand.NewSource(1))
	long := make([]byte, 3*2_000)
	rng.Read(long)
	f.Add(long)
	paths := make([]string, pool)
	for i := range paths {
		paths[i] = "/z/d" + strconv.Itoa(i%3) + "/f" + strconv.Itoa(i)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		h := New()
		h.SetTagBits(4)
		m := &model{stores: make(map[int]map[string]bool), homes: make(map[string]int)}
		ids := make([]int, servers)
		for i := range ids {
			ids[i] = i
			m.stores[i] = make(map[string]bool)
		}
		for step := 0; step+3 <= len(ops) && step < 3*4_000; step += 3 {
			op, p, home := ops[step]%6, paths[int(ops[step+1])%pool], int(ops[step+2])%servers
			was, present := m.homes[p]
			switch op {
			case 0: // put
				got, ok := h.PutIfAbsentThen(p, home, m.holds, func() { m.stores[home][p] = true })
				if ok == present || present && got != was {
					t.Fatalf("step %d: PutIfAbsentThen(%s, %d) = %d, %v; model (%d, %v)", step, p, home, got, ok, was, present)
				}
				if !present {
					m.homes[p] = home
				}
			case 1: // remove
				got, ok := h.RemoveThen(p, m.holds, func(at int) { delete(m.stores[at], p) })
				if ok != present || present && got != was {
					t.Fatalf("step %d: RemoveThen(%s) = %d, %v; model (%d, %v)", step, p, got, ok, was, present)
				}
				delete(m.homes, p)
			case 2: // rehome from the model's home, if any
				if !present || was == home {
					continue
				}
				if !h.Rehome(p, was, home, m.holds, func() { m.stores[home][p] = true }) {
					t.Fatalf("step %d: Rehome(%s, %d → %d) missed", step, p, was, home)
				}
				delete(m.stores[was], p)
				m.homes[p] = home
			case 3: // scrub
				lost := 0
				for q, at := range m.homes {
					if at == home {
						delete(m.homes, q)
						lost++
					}
				}
				clear(m.stores[home])
				if got := h.Scrub(home); got != lost {
					t.Fatalf("step %d: Scrub(%d) = %d, model %d", step, home, got, lost)
				}
			case 4: // insert, as a caller that learned home stores p
				if present {
					continue
				}
				h.Insert(p, home)
				m.stores[home][p] = true
				m.homes[p] = home
			case 5: // remove-at, as a caller that learned home dropped p
				switch {
				case present && was == home:
					if !h.Remove(p, home) {
						t.Fatalf("step %d: Remove(%s, %d) found no cell", step, p, home)
					}
					delete(m.stores[home], p)
					delete(m.homes, p)
				case !m.sameTagAt(h, p, home):
					if h.Remove(p, home) {
						t.Fatalf("step %d: Remove(%s, %d) dropped a cell no path of its tag accounts for", step, p, home)
					}
				}
			}
			for _, q := range paths {
				want, ok := m.homes[q]
				if !ok {
					want = -1
				}
				if got, _ := h.Get(q, m.holds); got != want {
					t.Fatalf("step %d: Get(%s) = %d, model %d", step, q, got, want)
				}
				if ok && !slices.Contains(h.Candidates(q, nil), want) {
					t.Fatalf("step %d: Candidates(%s) = %v lack home %d", step, q, h.Candidates(q, nil), want)
				}
			}
			if h.Len() != len(m.homes) {
				t.Fatalf("step %d: Len = %d, model %d", step, h.Len(), len(m.homes))
			}
			if err := h.Check(ids, m.stored, m.holds); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	})
}

// sameTagAt reports whether some path the model homes at home shares p's
// tag: a cell Remove(p, home) may drop in its place.
func (m *model) sameTagAt(h *Index, p string, home int) bool {
	_, tag := h.Locate(p)
	for q, at := range m.homes {
		if _, qt := h.Locate(q); at == home && qt == tag {
			return true
		}
	}
	return false
}

// TestIndexZeroAlloc pins the allocation contract of the primitives both
// engines run per operation: Get, a claim of a present path, a
// claim-then-remove cycle, a re-home, an Insert/Remove pair and a
// Candidates probe into a reused buffer.
func TestIndexZeroAlloc(t *testing.T) {
	h := New()
	stores := map[int]map[string]bool{0: {}, 1: {}}
	holds := func(home int, path string) bool { return stores[home][path] }
	for i := 0; i < 500; i++ {
		p := "/f" + strconv.Itoa(i)
		h.Insert(p, i%2)
		stores[i%2][p] = true
	}
	const present, cycle = "/f42", "/cycle"
	buf := make([]int, 0, 4)
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"Get", func() {
			if got, ok := h.Get(present, holds); !ok || got != 0 {
				t.Fatal("Get wrong")
			}
		}},
		{"PutIfAbsentThen present", func() {
			if _, ok := h.PutIfAbsentThen(present, 1, holds, func() { t.Fatal("claimed a present path") }); ok {
				t.Fatal("claimed a present path")
			}
		}},
		{"PutIfAbsentThen+RemoveThen", func() {
			h.PutIfAbsentThen(cycle, 1, holds, func() {})
			h.RemoveThen(cycle, func(int, string) bool { return true }, func(int) {})
		}},
		{"Rehome", func() {
			h.Rehome(present, 0, 1, holds, func() {})
			h.Rehome(present, 1, 0, func(int, string) bool { return true }, func() {})
		}},
		{"Insert+Remove", func() {
			h.Insert(cycle, 1)
			h.Remove(cycle, 1)
		}},
		{"Candidates", func() {
			buf = h.Candidates(present, buf[:0])
		}},
	} {
		if allocs := testing.AllocsPerRun(1_000, tc.op); allocs != 0 {
			t.Errorf("%s allocates %.2f objects/op, want 0", tc.name, allocs)
		}
	}
	if err := h.Check([]int{0, 1}, func(id int) []string {
		var out []string
		for p := range stores[id] {
			out = append(out, p)
		}
		return out
	}, holds); err != nil {
		t.Fatal(err)
	}
}

// benchIndex loads an index with the simulator workloads' 120,000 paths over
// 30 homes, and returns it with the paths, a confirm step over a map of the
// true homes, and as many absent paths.
func benchIndex() (*Index, []string, []string, func(int, string) bool) {
	const n, servers = 120_000, 30
	h := New()
	homes := make(map[string]int, n)
	hit, miss := make([]string, n), make([]string, n)
	for i := range hit {
		hit[i] = "/bench/dir" + strconv.Itoa(i%100) + "/file" + strconv.Itoa(i)
		miss[i] = hit[i] + ".absent"
		homes[hit[i]] = i % servers
		h.Insert(hit[i], i%servers)
	}
	confirm := func(home int, path string) bool {
		at, ok := homes[path]
		return ok && at == home
	}
	return h, hit, miss, confirm
}

// BenchmarkIndexGet times Get at 120,000 files, on present paths and on
// absent ones. The confirm step is a map lookup, as a store's would be.
func BenchmarkIndexGet(b *testing.B) {
	h, hit, miss, confirm := benchIndex()
	for _, tc := range []struct {
		name  string
		paths []string
		want  bool
	}{{"hit", hit, true}, {"miss", miss, false}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := h.Get(tc.paths[i%len(tc.paths)], confirm); ok != tc.want {
					b.Fatal("Get wrong")
				}
			}
		})
	}
}

// BenchmarkIndexPut times claiming an absent path with PutIfAbsentThen at
// 120,000 files, then dropping its cell with Remove, so that the index
// stays at one size throughout.
func BenchmarkIndexPut(b *testing.B) {
	h, _, miss, confirm := benchIndex()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := miss[i%len(miss)]
		if _, ok := h.PutIfAbsentThen(p, 1, confirm, func() {}); !ok {
			b.Fatal("claim refused")
		}
		h.Remove(p, 1)
	}
}
