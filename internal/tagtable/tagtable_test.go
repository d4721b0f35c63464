package tagtable

import (
	"math/rand"
	"slices"
	"testing"
)

// model is the reference multimap the table is checked against: the values
// held under each tag, in no particular order, and the most entries the
// table has held, which alone fixes its size.
type model struct {
	vals map[uint32][]uint32
	n    int
	peak int
}

func newModel(sized int) *model {
	return &model{vals: make(map[uint32][]uint32), peak: sized}
}

func (m *model) insert(tag, val uint32) {
	m.vals[tag] = append(m.vals[tag], val)
	m.n++
	m.peak = max(m.peak, m.n)
}

// remove drops one val of tag.
func (m *model) remove(tag, val uint32) {
	vs := m.vals[tag]
	k := slices.Index(vs, val)
	vs[k] = vs[len(vs)-1]
	if vs = vs[:len(vs)-1]; len(vs) == 0 {
		delete(m.vals, tag)
	} else {
		m.vals[tag] = vs
	}
	m.n--
}

// slots returns the slots Find and Next visit for tag.
func slots(tab *Table, tag uint32) []int {
	var out []int
	for i := tab.Find(tag); i >= 0; i = tab.Next(i) {
		if len(out) > tab.Size() {
			panic("Next cycles")
		}
		out = append(out, i)
	}
	return out
}

// check compares tab with m — Len, the values Find and Next visit for every
// tag, a miss for each absent tag probed — and then the layout itself: the
// size is SizeFor of the peak count and at most 7/8 full, every cell sits
// at or after its home with no empty slot between, and every two adjacent
// cells of one run are in order (home slot first, then tag).
func check(t *testing.T, tab *Table, m *model, absent []uint32) {
	t.Helper()
	if tab.Len() != m.n {
		t.Fatalf("Len = %d, model %d", tab.Len(), m.n)
	}
	for tag, want := range m.vals {
		var got []uint32
		for _, i := range slots(tab, tag) {
			if tab.cells[i].tag != tag {
				t.Fatalf("slot %d of tag %#x holds tag %#x", i, tag, tab.cells[i].tag)
			}
			got = append(got, tab.Val(i))
		}
		slices.Sort(got)
		want = slices.Clone(want)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("tag %#x: values %v, model %v", tag, got, want)
		}
	}
	for _, tag := range absent {
		if _, ok := m.vals[tag]; !ok && tab.Find(tag) != -1 {
			t.Fatalf("Find(%#x) = %d, the tag is absent", tag, tab.Find(tag))
		}
	}

	size := tab.Size()
	if size != SizeFor(m.peak) {
		t.Fatalf("%d cells after holding at most %d entries, want %d", size, m.peak, SizeFor(m.peak))
	}
	if 8*m.n > 7*size {
		t.Fatalf("%d entries in %d cells, over 7/8 full", m.n, size)
	}
	used := 0
	for i := 0; i < size; i++ {
		if tab.Val(i) == 0 {
			continue
		}
		used++
		tag := tab.cells[i].tag
		h := tab.home(tag)
		for j := h; j != i; j = tab.next(j) {
			if tab.Val(j) == 0 {
				t.Fatalf("slot %d (tag %#x, home %d): slot %d between is empty", i, tag, h, j)
			}
		}
		j := tab.next(i)
		if tab.Val(j) == 0 {
			continue
		}
		d := (i - h + size) % size
		dj := (j - tab.home(tab.cells[j].tag) + size) % size
		if dj > d+1 || dj == d+1 && tab.cells[j].tag < tag {
			t.Fatalf("slots %d (tag %#x, home %d) and %d (tag %#x, home %d) out of order",
				i, tag, h, j, tab.cells[j].tag, tab.home(tab.cells[j].tag))
		}
	}
	if used != m.n {
		t.Fatalf("%d cells in use for %d entries", used, m.n)
	}
}

// tagOf maps a step's tag byte to a tag: with width 0, spread over all 32
// bits; otherwise narrowed to its top width bits, as homeindex narrows them
// in tests, so that equal tags, runs wrapping past the table's end and
// tags at both extremes are common.
func tagOf(b byte, width uint) uint32 {
	if width == 0 {
		return uint32(b) * 0x9e3779b9
	}
	return uint32(b) << 24 & ^(uint32(1)<<(32-width) - 1)
}

// step applies one operation to the table and the model: insert, delete
// one entry of a tag, set the value of one entry of a tag, or filter out
// the values in one residue class. Values are unique, so the model can
// name the entry a slot holds.
func step(t *testing.T, tab *Table, m *model, op byte, tag, val uint32) {
	t.Helper()
	switch op % 8 {
	case 0, 1, 2, 3:
		tab.Insert(tag, val)
		m.insert(tag, val)
	case 4, 5:
		if s := slots(tab, tag); len(s) > 0 {
			i := s[int(val)%len(s)]
			m.remove(tag, tab.Val(i))
			tab.Delete(i)
		}
	case 6:
		if s := slots(tab, tag); len(s) > 0 {
			i := s[int(val)%len(s)]
			m.remove(tag, tab.Val(i))
			m.insert(tag, val)
			tab.SetVal(i, val)
		}
	case 7:
		mod, rem := 2+val%5, val%3
		drop := func(v uint32) bool { return v%mod == rem }
		want := 0
		for tg, vs := range m.vals {
			for _, v := range slices.Clone(vs) {
				if drop(v) {
					m.remove(tg, v)
					want++
				}
			}
		}
		if got := tab.Filter(func(_, v uint32) bool { return !drop(v) }); got != want {
			t.Fatalf("Filter dropped %d entries, model %d", got, want)
		}
	}
}

// TestTableMatchesModel runs seeded random sequences at every tag width
// from full to one bit, each climbing through several growths with inserts
// favoured and falling back with deletes and filters favoured, and checks
// the table against the model after every step while small and every 64
// steps after.
func TestTableMatchesModel(t *testing.T) {
	for width := uint(0); width <= 8; width++ {
		for _, sized := range []int{0, 100} {
			rng := rand.New(rand.NewSource(int64(10*width) + int64(sized)))
			tab, m := Make(sized), newModel(sized)
			absent := []uint32{0, 1, 0x7fffffff, 0x80000000, ^uint32(0)}
			val := uint32(0)
			const steps = 3_000
			for s := 0; s < steps; s++ {
				op := byte(rng.Intn(8))
				if s >= steps/2 && op < 4 && rng.Intn(2) == 0 {
					op += 4 // favour removals on the way down
				}
				val++
				step(t, &tab, m, op, tagOf(byte(rng.Intn(256)), width), val)
				if m.n < 40 || s%64 == 0 {
					check(t, &tab, m, absent)
				}
			}
			check(t, &tab, m, absent)
		}
	}
}

// TestSizeFor pins the growth sequence: 0 cells for nothing, then 8, 12,
// 18, 27, 40, …, each at most 1.5× the last and at most 7/8 full.
func TestSizeFor(t *testing.T) {
	want := []int{8, 12, 18, 27, 40, 60, 90, 135}
	if SizeFor(0) != 0 {
		t.Fatalf("SizeFor(0) = %d, want 0", SizeFor(0))
	}
	var got []int
	for n := 1; len(got) < len(want); n++ {
		c := SizeFor(n)
		if 8*n > 7*c {
			t.Fatalf("SizeFor(%d) = %d, over 7/8 full", n, c)
		}
		if len(got) == 0 || got[len(got)-1] != c {
			got = append(got, c)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("sizes %v, want %v", got, want)
	}
	for c := SizeFor(1); c < 1<<30; {
		full := 7 * c / 8
		if SizeFor(full) != c {
			t.Fatalf("SizeFor(%d) = %d, want %d", full, SizeFor(full), c)
		}
		next := SizeFor(full + 1)
		if 2*next > 3*c {
			t.Fatalf("SizeFor grows %d → %d cells past %d entries, over 1.5×", c, next, full)
		}
		c = next
	}
}

// TestTableZeroAlloc pins the per-operation primitives as allocation-free:
// a hit and a miss, a walk over a tag's entries, a value update, and an
// insert into a table with room followed by its delete.
func TestTableZeroAlloc(t *testing.T) {
	tab := Make(1_000)
	for i := uint32(1); i <= 500; i++ {
		tab.Insert(i*0x9e3779b9, i)
	}
	k := uint32(7)
	hit, miss := k*0x9e3779b9, uint32(12345)
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"Find hit+Next", func() {
			i := tab.Find(hit)
			if i < 0 || tab.Next(i) != -1 {
				t.Fatal("Find missed")
			}
		}},
		{"Find miss", func() {
			if tab.Find(miss) != -1 {
				t.Fatal("Find hit an absent tag")
			}
		}},
		{"SetVal", func() { tab.SetVal(tab.Find(hit), 7) }},
		{"Insert+Delete", func() {
			tab.Insert(miss, 1)
			tab.Delete(tab.Find(miss))
		}},
	} {
		if allocs := testing.AllocsPerRun(1_000, tc.op); allocs != 0 {
			t.Errorf("%s allocates %.2f objects/op, want 0", tc.name, allocs)
		}
	}
}

// FuzzTagTable drives insert, delete, set-value and filter steps, three
// bytes each (operation, tag, value), against the model at the tag width
// the first byte picks (0 is full width, 1–8 top bits), and checks the
// table in full after every step.
func FuzzTagTable(f *testing.F) {
	f.Add([]byte{4, 0, 1, 2, 0, 0, 3, 1, 1, 4, 0, 0, 7, 0, 2})
	f.Add([]byte{1, 0, 255, 1, 0, 0, 1, 1, 128, 1, 4, 128, 1, 6, 255, 9, 7, 0, 4})
	rng := rand.New(rand.NewSource(1))
	long := make([]byte, 1+3*600)
	rng.Read(long)
	long[0] = 3
	f.Add(long)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		width := uint(ops[0] % 9)
		tab, m := Table{}, newModel(0)
		absent := []uint32{0, ^uint32(0), tagOf(0x5a, width)}
		for s := 1; s+3 <= len(ops) && s < 1+3*1_000; s += 3 {
			step(t, &tab, m, ops[s], tagOf(ops[s+1], width), uint32(s))
			check(t, &tab, m, absent)
		}
	})
}
