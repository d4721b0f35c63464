package bloom

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, m uint64, k uint32) *Filter {
	t.Helper()
	f, err := New(m, k)
	if err != nil {
		t.Fatalf("New(%d, %d): %v", m, k, err)
	}
	return f
}

func TestNewRejectsInvalidGeometry(t *testing.T) {
	cases := []struct {
		m uint64
		k uint32
	}{{0, 3}, {100, 0}, {0, 0}}
	for _, c := range cases {
		if _, err := New(c.m, c.k); err == nil {
			t.Errorf("New(%d, %d) succeeded, want error", c.m, c.k)
		}
	}
}

func TestNewForCapacityRejectsInvalid(t *testing.T) {
	if _, err := NewForCapacity(0, 8); err == nil {
		t.Error("NewForCapacity(0, 8) succeeded, want error")
	}
	if _, err := NewForCapacity(10, 0); err == nil {
		t.Error("NewForCapacity(10, 0) succeeded, want error")
	}
	if _, err := NewForCapacity(10, -4); err == nil {
		t.Error("NewForCapacity(10, -4) succeeded, want error")
	}
}

// TestCapacityGeometryRejectsNonFiniteAndOverflow pins the one sizing check:
// a ratio that is not finite, or whose bit count or hash count does not fit
// its integer type, is refused as ErrInvalidGeometry instead of wrapping into
// a slice length that panics in make.
func TestCapacityGeometryRejectsNonFiniteAndOverflow(t *testing.T) {
	for _, tc := range []struct {
		n    uint64
		bits float64
	}{
		{1000, math.NaN()},
		{1000, math.Inf(1)},
		{1000, math.Inf(-1)},
		{1000, 1e300},              // n·bits overflows uint64
		{math.MaxUint64, 2},        // n·bits overflows uint64
		{1, 0x1p33},                // OptimalK overflows uint32
		{1 << 40, math.MaxFloat64}, // both
	} {
		for _, layout := range []Layout{LayoutClassic, LayoutBlocked} {
			if m, k, err := CapacityGeometry(tc.n, tc.bits, layout); !errors.Is(err, ErrInvalidGeometry) {
				t.Errorf("CapacityGeometry(%d, %g, %v) = (%d, %d, %v), want ErrInvalidGeometry", tc.n, tc.bits, layout, m, k, err)
			}
			if _, err := NewForCapacityLayout(tc.n, tc.bits, layout); !errors.Is(err, ErrInvalidGeometry) {
				t.Errorf("NewForCapacityLayout(%d, %g, %v) = %v, want ErrInvalidGeometry", tc.n, tc.bits, layout, err)
			}
		}
	}
	// The smallest positive ratio still sizes a one-bit, one-hash filter.
	if m, k, err := CapacityGeometry(1, math.SmallestNonzeroFloat64, LayoutClassic); err != nil || m != 1 || k != 1 {
		t.Errorf("CapacityGeometry(1, min float) = (%d, %d, %v), want (1, 1, nil)", m, k, err)
	}
}

func TestNewForCapacityGeometry(t *testing.T) {
	f, err := NewForCapacity(1000, 8)
	if err != nil {
		t.Fatal(err)
	}
	if f.M() != 8000 {
		t.Errorf("M = %d, want 8000", f.M())
	}
	// k = 8·ln2 ≈ 5.545 → 6
	if f.K() != 6 {
		t.Errorf("K = %d, want 6", f.K())
	}
}

func TestAddContains(t *testing.T) {
	f := mustNew(t, 1<<14, 6)
	keys := []string{"", "/", "/usr/lib/file.so", "a", "ab", "abc", "/home/user/.bashrc"}
	for _, k := range keys {
		f.AddString(k)
	}
	for _, k := range keys {
		if !f.ContainsString(k) {
			t.Errorf("Contains(%q) = false after Add", k)
		}
	}
}

func TestNoFalseNegativesProperty(t *testing.T) {
	f := mustNew(t, 1<<16, 7)
	err := quick.Check(func(key []byte) bool {
		f.Add(key)
		return f.Contains(key)
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Errorf("false negative found: %v", err)
	}
}

func TestEmptyFilterContainsNothing(t *testing.T) {
	f := mustNew(t, 1<<16, 7)
	for i := 0; i < 1000; i++ {
		if f.ContainsString("key" + strconv.Itoa(i)) {
			t.Fatalf("empty filter claims membership of key%d", i)
		}
	}
}

func TestFalsePositiveRateNearTheory(t *testing.T) {
	// 8 bits/item, optimal k → f0 ≈ 0.6185^8 ≈ 2.1%.
	const n = 20000
	f, err := NewForCapacity(n, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		f.AddString("member-" + strconv.Itoa(i))
	}
	fp := 0
	const probes = 50000
	for i := 0; i < probes; i++ {
		if f.ContainsString("nonmember-" + strconv.Itoa(i)) {
			fp++
		}
	}
	got := float64(fp) / probes
	want := math.Pow(0.6185, 8) // the paper's f0 at m/n = 8
	if got > want*2.5 {
		t.Errorf("observed FPR %.4f far above theoretical %.4f", got, want)
	}
}

func TestCloneIndependence(t *testing.T) {
	f := mustNew(t, 1024, 4)
	f.AddString("a")
	g := f.Clone()
	if !f.Equal(g) {
		t.Fatal("clone not equal to original")
	}
	g.AddString("b")
	if f.Equal(g) && f.PopCount() == g.PopCount() {
		t.Error("mutation of clone affected original")
	}
	if !f.ContainsString("a") {
		t.Error("original lost key after clone mutation")
	}
}

func TestEqualDifferentGeometry(t *testing.T) {
	a := mustNew(t, 1024, 4)
	b := mustNew(t, 1024, 5)
	c := mustNew(t, 2048, 4)
	if a.Equal(b) {
		t.Error("filters with different k compare equal")
	}
	if a.Equal(c) {
		t.Error("filters with different m compare equal")
	}
}

func TestFillRatioAndSize(t *testing.T) {
	f := mustNew(t, 128, 2)
	if f.PopCount() != 0 {
		t.Errorf("empty PopCount = %d", f.PopCount())
	}
	if f.SizeBytes() != 16 {
		t.Errorf("SizeBytes = %d, want 16", f.SizeBytes())
	}
	f.AddString("k")
	if f.PopCount() == 0 || f.PopCount() > uint64(f.K()) {
		t.Errorf("PopCount = %d out of expected range", f.PopCount())
	}
}

func TestXorOfIdenticalSetsIsZero(t *testing.T) {
	a := mustNew(t, 1<<12, 5)
	b := mustNew(t, 1<<12, 5)
	for i := 0; i < 200; i++ {
		a.AddString("k" + strconv.Itoa(i))
		b.AddString("k" + strconv.Itoa(i))
	}
	d, err := a.XorBits(b)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("XorBits of identical sets = %d, want 0", d)
	}
}

func TestGeometryMismatchErrors(t *testing.T) {
	a := mustNew(t, 1024, 4)
	b := mustNew(t, 2048, 4)
	if _, err := a.XorBits(b); err == nil {
		t.Error("XorBits across geometries succeeded")
	}
}

func TestHashDeterminism(t *testing.T) {
	// Two filters built independently over the same keys must be bitwise
	// identical — the property replica distribution depends on.
	a := mustNew(t, 1<<13, 6)
	b := mustNew(t, 1<<13, 6)
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("/fs/dir%d/file%d", i%37, i)
		a.AddString(k)
		b.AddString(k)
	}
	if !a.Equal(b) {
		t.Error("same insertion sequence produced different bit vectors")
	}
}

func TestHashPairStrideOdd(t *testing.T) {
	err := quick.Check(func(key []byte) bool {
		_, h2 := hashPair(key)
		return h2%2 == 1
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Errorf("h2 not always odd: %v", err)
	}
}

func TestOptimalK(t *testing.T) {
	cases := []struct {
		ratio float64
		want  uint32
	}{
		{8, 6},   // 5.545 → 6
		{16, 11}, // 11.09 → 11
		{1, 1},   // 0.69 → 1
		{0.1, 1}, // rounds to 0, clamped to 1
	}
	for _, c := range cases {
		if got := OptimalK(c.ratio); got != c.want {
			t.Errorf("OptimalK(%v) = %d, want %d", c.ratio, got, c.want)
		}
	}
}

func TestFalsePositiveRateFormula(t *testing.T) {
	if got := FalsePositiveRate(1000, 0, 4); got != 0 {
		t.Errorf("FPR with n=0 = %f, want 0", got)
	}
	if got := FalsePositiveRate(0, 10, 4); got != 1 {
		t.Errorf("FPR with m=0 = %f, want 1", got)
	}
	// Known value: m/n=8, k=6 → (1−e^(−6/8))^6 ≈ 0.0216.
	got := FalsePositiveRate(8000, 1000, 6)
	if math.Abs(got-0.0216) > 0.002 {
		t.Errorf("FPR(8000,1000,6) = %f, want ≈0.0216", got)
	}
}

func TestSegmentFalsePositiveEq1(t *testing.T) {
	if got := SegmentFalsePositive(0, 8); got != 0 {
		t.Errorf("Eq1 with θ=0 = %f, want 0", got)
	}
	// θ=1 reduces to f0.
	if got, want := SegmentFalsePositive(1, 8), math.Pow(0.6185, 8); math.Abs(got-want) > 1e-12 {
		t.Errorf("Eq1 θ=1 = %g, want f0 = %g", got, want)
	}
	// Hand-computed: θ=10, ratio 8: 10·f0·(1−f0)^9.
	f0 := math.Pow(0.6185, 8)
	want := 10 * f0 * math.Pow(1-f0, 9)
	if got := SegmentFalsePositive(10, 8); math.Abs(got-want) > 1e-12 {
		t.Errorf("Eq1 θ=10 = %g, want %g", got, want)
	}
}

// TestAddReportsBitsTurnedOn pins what the O(k) staleness counter in mds
// rests on: every add reports exactly the bits it turned on (PopCount after
// minus before — repeated keys, colliding probes and the k > digestMaxK
// fallback included), and AddStringXor reports exactly how far the add moved
// XorBits against a reference that holds bits the filter lacks.
func TestAddReportsBitsTurnedOn(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, layout := range []Layout{LayoutClassic, LayoutBlocked} {
		for _, k := range []uint32{3, 11, digestMaxK + 3} {
			f, err := NewLayout(2048, k, layout)
			if err != nil {
				t.Fatal(err)
			}
			ref, _ := NewLayout(2048, k, layout)
			for i := 0; i < 40; i++ {
				ref.AddString("ref-" + strconv.Itoa(i))
			}
			for i := 0; i < 600; i++ {
				key := "key-" + strconv.Itoa(rng.Intn(300)) // repeats are common
				if i%5 == 0 {
					key = "ref-" + strconv.Itoa(rng.Intn(40)) // bits ref already has
				}
				before := f.PopCount()
				xorBefore, _ := f.XorBits(ref)
				var got int
				var via string
				switch i % 4 {
				case 0:
					via, got = "Add", f.Add([]byte(key))
				case 1:
					via, got = "AddString", f.AddString(key)
				case 2:
					d := NewDigestString(key)
					via, got = "AddDigest", f.AddDigest(&d)
				default:
					via = "AddStringXor"
					moved, err := f.AddStringXor(key, ref)
					if err != nil {
						t.Fatal(err)
					}
					xorAfter, _ := f.XorBits(ref)
					if want := int(xorAfter) - int(xorBefore); moved != want {
						t.Fatalf("%v k=%d add %d: AddStringXor reported %+d, XorBits moved %+d", layout, k, i, moved, want)
					}
					continue
				}
				if want := int(f.PopCount() - before); got != want {
					t.Fatalf("%v k=%d add %d: %s reported %d bits, PopCount grew by %d", layout, k, i, via, got, want)
				}
			}
		}
	}
	small, _ := New(64, 3)
	if _, err := small.AddStringXor("x", mustNew(t, 128, 3)); !errors.Is(err, ErrGeometryMismatch) {
		t.Fatalf("AddStringXor across geometries: err = %v", err)
	}
	if small.PopCount() != 0 {
		t.Fatal("a refused AddStringXor still set bits")
	}
}
