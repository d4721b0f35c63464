package bloomarray

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"ghba/internal/bloom"
)

// refLRU is the reference the bit-sliced LRUArray is held to: the
// representation it displaced, one pair of plain bloom.Filters per home with
// the same observe and rotate rules. Single-goroutine, test-only.
type refLRU struct {
	capacity    uint64
	bitsPerItem float64
	layout      bloom.Layout
	entries     map[int]*refGenerations
}

type refGenerations struct{ active, aged *bloom.Filter }

func newRefLRU(capacity uint64, bitsPerItem float64, layout bloom.Layout) *refLRU {
	return &refLRU{capacity: capacity, bitsPerItem: bitsPerItem, layout: layout,
		entries: map[int]*refGenerations{}}
}

func (r *refLRU) generation(t testing.TB) *bloom.Filter {
	f, err := bloom.NewForCapacityLayout(r.capacity, r.bitsPerItem, r.layout)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func (r *refLRU) observe(t testing.TB, d *bloom.Digest, home int) {
	e := r.entries[home]
	switch {
	case e == nil:
		e = &refGenerations{active: r.generation(t)}
		r.entries[home] = e
	case e.active.Count() < r.capacity && e.active.ContainsDigest(d):
		return
	case e.active.Count() >= r.capacity:
		e.aged, e.active = e.active, r.generation(t)
	}
	e.active.AddDigest(d)
}

func (r *refLRU) query(d *bloom.Digest) []int {
	var hits []int
	for id, e := range r.entries {
		if e.active.ContainsDigest(d) || (e.aged != nil && e.aged.ContainsDigest(d)) {
			hits = append(hits, id)
		}
	}
	slices.Sort(hits)
	return hits
}

func (r *refLRU) sizeBytes() uint64 {
	var total uint64
	for _, e := range r.entries {
		total += e.active.SizeBytes()
		if e.aged != nil {
			total += e.aged.SizeBytes()
		}
	}
	return total
}

// lruPair drives an LRUArray and its reference in lockstep.
type lruPair struct {
	t   testing.TB
	got *LRUArray
	ref *refLRU
	buf []int
}

func newLRUPair(t testing.TB, capacity uint64, bitsPerItem float64, layout bloom.Layout) *lruPair {
	got, err := NewLRUArrayLayout(capacity, bitsPerItem, layout)
	if err != nil {
		t.Fatal(err)
	}
	return &lruPair{t: t, got: got, ref: newRefLRU(capacity, bitsPerItem, layout)}
}

func (p *lruPair) observe(key string, home int) {
	p.got.ObserveDigest(digestOf(key), home)
	p.ref.observe(p.t, digestOf(key), home)
}

func (p *lruPair) forget(home int) {
	p.got.Forget(home)
	delete(p.ref.entries, home)
}

// checkQuery requires equal hit lists for key, through a reused buffer.
func (p *lruPair) checkQuery(step int, key string) {
	p.t.Helper()
	r := p.got.QueryDigest(digestOf(key), p.buf)
	p.buf = r.Hits
	if want := p.ref.query(digestOf(key)); !slices.Equal(r.Hits, want) {
		p.t.Fatalf("step %d: QueryDigest(%q) = %v, reference %v", step, key, r.Hits, want)
	}
}

// checkAccounting requires equal Entries and SizeBytes.
func (p *lruPair) checkAccounting(step int) {
	p.t.Helper()
	if got, want := p.got.Entries(), len(p.ref.entries); got != want {
		p.t.Fatalf("step %d: Entries = %d, reference %d", step, got, want)
	}
	if got, want := p.got.SizeBytes(), p.ref.sizeBytes(); got != want {
		p.t.Fatalf("step %d: SizeBytes = %d, reference %d", step, got, want)
	}
}

// TestLRUMatchesFilterPairs is the differential test of the bit-sliced
// layout: a seeded Observe/Query/Forget sequence must leave the array
// and per-home pairs of plain filters with equal hit lists, Entries and
// SizeBytes at every step. The home counts straddle the lane-word growth
// points (a 33rd and a 65th home), forgotten homes come back (lane reuse),
// the home IDs are sparse and arrive in shuffled order (lane order is not ID
// order), and bitsPerItem = 46 gives k = bloom.MaxK, the largest hash count
// a geometry may have.
func TestLRUMatchesFilterPairs(t *testing.T) {
	type geometry struct {
		capacity    uint64
		bitsPerItem float64
	}
	geometries := []geometry{{1, 16}, {16, 16}, {256, 16}, {16, 46}}
	for _, layout := range []bloom.Layout{bloom.LayoutClassic, bloom.LayoutBlocked} {
		for _, geo := range geometries {
			for _, homes := range []int{1, 31, 32, 33, 65} {
				name := fmt.Sprintf("%v/cap%d/bits%g/homes%d", layout, geo.capacity, geo.bitsPerItem, homes)
				t.Run(name, func(t *testing.T) {
					runLRUDifferential(t, geo.capacity, geo.bitsPerItem, layout, homes)
				})
			}
		}
	}
}

func runLRUDifferential(t *testing.T, capacity uint64, bitsPerItem float64, layout bloom.Layout, homes int) {
	rng := rand.New(rand.NewSource(int64(capacity)*1000 + int64(homes)))
	p := newLRUPair(t, capacity, bitsPerItem, layout)
	ids := make([]int, homes)
	for i := range ids {
		ids[i] = 7 + 3*i
	}
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })

	// Enough distinct keys per home to rotate every lane several times, few
	// enough that re-observes (the fast path) and aged hits are common.
	keys := int(capacity)*homes*3 + 8
	steps := min(12*keys, 12_000)
	if testing.Short() {
		steps /= 4
	}
	key := func(i int) string { return "/diff/f" + strconv.Itoa(i) }
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(1000); {
		case op < 700:
			// A key mostly keeps its home; now and then it shows up at
			// another one, which makes multi-hit answers.
			i := rng.Intn(keys)
			home := ids[i%homes]
			if rng.Intn(16) == 0 {
				home = ids[rng.Intn(homes)]
			}
			p.observe(key(i), home)
		case op < 960:
			i := rng.Intn(keys + keys/4) // the top fifth was never observed
			p.checkQuery(step, key(i))
		default:
			// Forget a tracked home, an untracked one, or an ID that never
			// existed.
			p.forget(7 + rng.Intn(3*homes+2))
		}
		p.checkAccounting(step)
	}
	for i := 0; i < keys; i += 1 + keys/2_000 {
		p.checkQuery(steps, key(i))
	}
}

// TestLRUForgetDoesNotResurrect pins lane reuse: a home that rotated (so
// both of its lane's columns carry bits) is forgotten, and the next new home
// takes over its lane; none of the departed home's keys may answer for the
// newcomer.
func TestLRUForgetDoesNotResurrect(t *testing.T) {
	p := newLRUPair(t, 8, 16, bloom.LayoutClassic)
	for i := 0; i < 20; i++ { // two rotations of home 1
		p.observe("/old/f"+strconv.Itoa(i), 1)
	}
	p.observe("/keep", 2)
	p.forget(1)
	p.observe("/new", 3) // claims home 1's lane
	p.checkAccounting(0)
	for i := 0; i < 20; i++ {
		p.checkQuery(i, "/old/f"+strconv.Itoa(i))
		if hits := p.got.QueryDigest(digestOf("/old/f"+strconv.Itoa(i)), nil).Hits; slices.Contains(hits, 1) {
			t.Fatalf("forgotten home still answers: %v", hits)
		}
	}
	p.checkQuery(20, "/new")
	p.checkQuery(21, "/keep")
}

// TestLRUIdleArrayOwnsNoSlab pins the lazy allocation heap_mb relies on: an
// array that never observed holds no slab.
func TestLRUIdleArrayOwnsNoSlab(t *testing.T) {
	l, err := NewLRUArray(256, 16)
	if err != nil {
		t.Fatal(err)
	}
	if s := l.state.Load(); s.words != nil || s.gens != nil {
		t.Error("new array allocated a slab before its first observation")
	}
	l.ObserveDigest(digestOf("/x"), 1)
	if got, want := len(l.state.Load().words), 256*16; got != want {
		t.Errorf("slab holds %d words after one home, want %d", got, want)
	}
}

// TestLRUForgetUnknownPublishesNothing pins the no-op: forgetting an MDS the
// array does not track must leave the published state untouched.
func TestLRUForgetUnknownPublishesNothing(t *testing.T) {
	l, err := NewLRUArray(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	l.ObserveDigest(digestOf("/x"), 1)
	before := l.state.Load()
	l.Forget(2)
	if l.state.Load() != before {
		t.Error("Forget of an untracked MDS published a new state")
	}
}

// TestLRUQueryDigestZeroAlloc pins the allocation contract of the L1 probe
// beside the segment array's: with a reused buffer, a query over 40 homes
// (two lane words) allocates nothing, hit or miss, and neither does
// re-observing a key already in the active generation.
func TestLRUQueryDigestZeroAlloc(t *testing.T) {
	l, err := NewLRUArray(256, 16)
	if err != nil {
		t.Fatal(err)
	}
	for home := 0; home < 40; home++ {
		for j := 0; j < 100; j++ {
			l.ObserveDigest(digestOf(fmt.Sprintf("/za/h%d/f%d", home, j)), home)
		}
	}
	hit, miss := bloom.NewDigestString("/za/h37/f42"), bloom.NewDigestString("/za/absent")
	buf := make([]int, 0, 16)
	if allocs := testing.AllocsPerRun(1_000, func() {
		r := l.QueryDigest(&hit, buf)
		if id, ok := r.Unique(); !ok || id != 37 {
			t.Fatalf("QueryDigest = %v, want unique 37", r.Hits)
		}
		buf = l.QueryDigest(&miss, r.Hits).Hits
		l.ObserveDigest(&hit, 37)
	}); allocs != 0 {
		t.Errorf("QueryDigest + re-observe allocate %.1f objects/op, want 0", allocs)
	}
}

// TestLRUConcurrentReadersVersusWriter runs lock-free queries and fast-path
// observes against a writer that rotates lanes, grows the slab past 32 and 64
// homes and forgets and re-admits homes (run under -race). The hot keys live
// in a home the writer never rotates or forgets, so every query for one must
// keep reporting that home whatever state the reader happened to load, and
// re-observing one must stay on the fast path; the writer mirrors its script
// into the reference, which the array must equal once everything quiesces.
func TestLRUConcurrentReadersVersusWriter(t *testing.T) {
	const (
		capacity = 32
		hotHome  = 1_000 // sorts after every churned home
		hotKeys  = 8
		readers  = 3
	)
	p := newLRUPair(t, capacity, 16, bloom.LayoutClassic)
	hot := func(i int) string { return "/hot/f" + strconv.Itoa(i) }
	for i := 0; i < hotKeys; i++ {
		p.observe(hot(i), hotHome)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			buf := make([]int, 0, 8)
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				d := bloom.NewDigestString(hot(i % hotKeys))
				res := p.got.QueryDigest(&d, buf)
				buf = res.Hits
				if !slices.Contains(res.Hits, hotHome) {
					t.Errorf("reader %d: hot key lost its home: %v", r, res.Hits)
					return
				}
				if !slices.IsSorted(res.Hits) {
					t.Errorf("reader %d: hits not ascending: %v", r, res.Hits)
					return
				}
				p.got.ObserveDigest(&d, hotHome)
				cold := bloom.NewDigestString("/churn/h" + strconv.Itoa(i%70) + "/f" + strconv.Itoa(i%97))
				buf = p.got.QueryDigest(&cold, buf).Hits
			}
		}(r)
	}

	// The writer: 70 homes arrive one by one (growth at the 33rd and 65th
	// lane), each rotating more than once; every tenth is forgotten after
	// the next has arrived, and comes back at the end.
	churn := func(home, j int) string { return "/churn/h" + strconv.Itoa(home) + "/f" + strconv.Itoa(j) }
	for home := 0; home < 70; home++ {
		for j := 0; j < 2*capacity+5; j++ {
			p.observe(churn(home, j), home)
		}
		if home%10 == 9 {
			p.forget(home - 1)
			p.forget(5_000) // never tracked
		}
	}
	for home := 8; home < 70; home += 10 {
		p.observe(churn(home, 0), home)
	}
	close(stop)
	wg.Wait()

	p.checkAccounting(0)
	for i := 0; i < hotKeys; i++ {
		p.checkQuery(i, hot(i))
	}
	for home := 0; home < 70; home++ {
		for j := 0; j < 2*capacity+5; j += 3 {
			p.checkQuery(home, churn(home, j))
		}
	}
}

// TestLRUConcurrentWriters runs lock-free inserts from several writers, each
// across many homes, against goroutines that take every locked path: new
// homes claimed mid-run (a 33rd and a 65th home grow the lane words), a home
// of its own rotated over and over, and short-lived homes forgotten (run
// under -race). Growth, rotation and Forget each copy the slab while writers
// insert into it, so an insert the copy misses and nobody redoes shows: each
// writer must find each key at its home as soon as ObserveDigest returns, and
// again once everything quiesces. The capacity exceeds the 80 keys a writer
// home takes in; even were every insert counted twice, a home would rotate
// once, and a key ages out only on the second rotation. A forgotten home's
// keys must never answer, neither for it nor for the home observed right
// after it, which may take over its lane.
func TestLRUConcurrentWriters(t *testing.T) {
	const (
		capacity  = 128
		writers   = 4
		perWriter = 400
		homes     = 20 // writer homes 0..19: 80 inserts each
		claimed   = 60 // homes 1000.., claimed as the writers progress
		rotated   = 700
	)
	l, err := NewLRUArray(capacity, 8)
	if err != nil {
		t.Fatal(err)
	}
	key := func(w, i int) string { return "/w" + strconv.Itoa(w) + "/f" + strconv.Itoa(i) }
	homeOf := func(w, i int) int { return (w + i) % homes }
	var progress atomic.Int64

	stop := make(chan struct{})
	var side sync.WaitGroup
	side.Add(3)
	go func() { // claims, paced by the writers; the rest once they are done
		defer side.Done()
		for i := 0; i < claimed; i++ {
			for wait := true; wait && progress.Load() < int64(i*writers*perWriter/claimed); {
				select {
				case <-stop:
					wait = false
				default:
					runtime.Gosched()
				}
			}
			l.ObserveDigest(digestOf("/claim/"+strconv.Itoa(i)), 1000+i)
		}
	}()
	go func() { // rotations
		defer side.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			l.ObserveDigest(digestOf("/rot/f"+strconv.Itoa(i)), rotated)
		}
	}()
	go func() { // Forget
		defer side.Done()
		buf := make([]int, 0, 8)
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			gone, next := 5000+n, 9000+n
			for j := 0; j < 3; j++ {
				l.ObserveDigest(digestOf(fmt.Sprintf("/gone/%d/%d", n, j)), gone)
			}
			l.Forget(gone)
			l.ObserveDigest(digestOf(fmt.Sprintf("/next/%d", n)), next)
			for j := 0; j < 3; j++ {
				buf = l.QueryDigest(digestOf(fmt.Sprintf("/gone/%d/%d", n, j)), buf).Hits
				if slices.Contains(buf, gone) || slices.Contains(buf, next) {
					t.Errorf("forgotten home %d's key %d answers %v", gone, j, buf)
					return
				}
			}
			l.Forget(next)
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]int, 0, 8)
			for i := 0; i < perWriter; i++ {
				d := digestOf(key(w, i))
				l.ObserveDigest(d, homeOf(w, i))
				buf = l.QueryDigest(d, buf).Hits
				if !slices.Contains(buf, homeOf(w, i)) {
					t.Errorf("writer %d: key %d missing from home %d right after its observation: %v", w, i, homeOf(w, i), buf)
					return
				}
				progress.Add(1)
			}
		}()
	}
	wg.Wait()
	close(stop)
	side.Wait()

	if got := l.Entries(); got < homes+claimed {
		t.Errorf("Entries = %d, want at least %d", got, homes+claimed)
	}
	var buf []int
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			if buf = l.QueryDigest(digestOf(key(w, i)), buf).Hits; !slices.Contains(buf, homeOf(w, i)) {
				t.Fatalf("writer %d's key %d lost from home %d: %v", w, i, homeOf(w, i), buf)
			}
		}
	}
}
