package bloom

import (
	"fmt"
	"math"
	"testing"
)

// randomKeys returns n distinct keys drawn from a disjoint namespace per
// prefix, so "member" and "probe" sets never collide.
func randomKeys(prefix string, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("/%s/d%d/f%d", prefix, i%97, i)
	}
	return keys
}

// Digest-based and direct probes must agree bit-for-bit on the blocked
// layout: a digest caches only the two base hashes, and the blocked
// position schedule is derived from those same hashes.
func TestBlockedContainsDigestMatchesContains(t *testing.T) {
	f, err := NewForCapacityLayout(2000, 8, LayoutBlocked)
	if err != nil {
		t.Fatal(err)
	}
	members := randomKeys("in", 2000)
	for _, k := range members {
		f.AddString(k)
	}
	for _, set := range [][]string{members, randomKeys("out", 5000)} {
		for _, k := range set {
			d := NewDigestString(k)
			if got, want := f.ContainsDigest(&d), f.Contains([]byte(k)); got != want {
				t.Fatalf("ContainsDigest(%q) = %v, Contains = %v", k, got, want)
			}
		}
	}
}

// A Bloom filter never false-negatives; the blocked layout must preserve
// that under plain adds and digest adds.
func TestBlockedNoFalseNegatives(t *testing.T) {
	a, err := NewForCapacityLayout(1500, 8, LayoutBlocked)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewLayout(a.M(), a.K(), LayoutBlocked)
	if err != nil {
		t.Fatal(err)
	}
	aKeys := randomKeys("a", 1500)
	bKeys := randomKeys("b", 1500)
	for _, k := range aKeys {
		a.AddString(k)
	}
	for _, k := range bKeys {
		d := NewDigestString(k)
		b.AddDigest(&d)
	}
	for _, k := range aKeys {
		if d := NewDigestString(k); !a.ContainsDigest(&d) {
			t.Fatalf("false negative for %q after AddString", k)
		}
	}
	for _, k := range bKeys {
		if d := NewDigestString(k); !b.ContainsDigest(&d) {
			t.Fatalf("false negative for %q after AddDigest", k)
		}
	}
}

// XOR-delta shipping (Section 3.4 of the paper) must work on the blocked
// layout: for old ⊆ new the drift XorBits reports is exactly the bits the new
// keys set, and a shipped snapshot brings it back to zero and answers
// identically to the origin.
func TestBlockedXorDeltaShip(t *testing.T) {
	old, err := NewForCapacityLayout(3000, 16, LayoutBlocked)
	if err != nil {
		t.Fatal(err)
	}
	base := randomKeys("base", 1500)
	for _, k := range base {
		old.AddString(k)
	}
	next := old.Clone()
	extra := randomKeys("extra", 1500)
	for _, k := range extra {
		next.AddString(k)
	}
	delta, err := next.XorBits(old)
	if err != nil {
		t.Fatal(err)
	}
	if want := next.PopCount() - old.PopCount(); delta == 0 || delta != want {
		t.Fatalf("drift = %d bits, want the %d bits the new keys set", delta, want)
	}
	old = next.Clone()
	if delta, err := next.XorBits(old); err != nil || delta != 0 {
		t.Fatalf("drift after ship = %d (%v), want 0", delta, err)
	}
	if !old.Equal(next) {
		t.Fatal("shipped snapshot differs from origin")
	}
	for _, k := range append(base, extra...) {
		if d := NewDigestString(k); !old.ContainsDigest(&d) {
			t.Fatalf("false negative for %q after ship", k)
		}
	}
}

// blockedFPRBound is the analog of the paper's Equation 1 for the blocked
// layout. With blocks of B = 512 bits and the whole probe schedule confined
// to one block, a filter holding n keys in m bits is a mixture of little
// B-bit filters whose loads j are Poisson(λ = n·B/m); each answers a probe
// positively with the classic rate (1 − (1 − 1/B)^(k·j))^k. The mixture is
// summed far enough past the mean that the truncated tail is negligible.
func blockedFPRBound(n, m uint64, k uint32) float64 {
	lambda := float64(n) * blockBits / float64(m)
	// Poisson pmf iteratively: p(0) = e^-λ, p(j) = p(j-1)·λ/j.
	p := math.Exp(-lambda)
	sum := 0.0
	hi := int(lambda + 12*math.Sqrt(lambda) + 12)
	for j := 0; j <= hi; j++ {
		if j > 0 {
			p *= lambda / float64(j)
		}
		inner := 1 - math.Pow(1-1.0/blockBits, float64(k)*float64(j))
		sum += p * math.Pow(inner, float64(k))
	}
	return sum
}

// The measured false-positive rate of a blocked filter must stay within the
// Poisson-mixture bound at the two bits-per-file ratios the paper evaluates
// (Table 5). The mixture assumes k independent probes per block; the real
// schedule is a double-hashed arithmetic progression over 512 offsets, whose
// collisions between keys sharing a block inflate the rate — noticeably so
// at k=11, where whole-schedule collisions guarantee false positives. The
// 3× slack absorbs that structure plus sampling noise; the point of the
// test is that blocking costs a bounded constant factor, not an asymptotic
// blowup.
func TestBlockedFPRWithinBound(t *testing.T) {
	const members = 20000
	const probes = 200000
	for _, bpf := range []float64{8, 16} {
		f, err := NewForCapacityLayout(members, bpf, LayoutBlocked)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range randomKeys("in", members) {
			f.AddString(k)
		}
		fp := 0
		for _, k := range randomKeys("probe", probes) {
			if d := NewDigestString(k); f.ContainsDigest(&d) {
				fp++
			}
		}
		got := float64(fp) / probes
		bound := blockedFPRBound(members, f.M(), f.K())
		classic := math.Pow(1-math.Exp(-float64(f.K())*members/float64(f.M())), float64(f.K()))
		t.Logf("bpf=%v k=%d: measured %.5f, blocked bound %.5f, classic %.5f", bpf, f.K(), got, bound, classic)
		if bound < classic {
			t.Errorf("bpf=%v: blocked bound %.5f below classic %.5f — mixture computed wrong", bpf, bound, classic)
		}
		if got > 3*bound {
			t.Errorf("bpf=%v: measured FPR %.5f exceeds 3× blocked bound %.5f", bpf, got, bound)
		}
	}
}
