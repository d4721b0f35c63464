package bloomarray

import (
	"fmt"
	"sort"
	"testing"

	"ghba/internal/bloom"
)

// benchArray builds a 16-replica segment array — the paper-scale L2 array a
// G-HBA server holds at N≈100, M≈6 — with every filter populated.
func benchArray(b *testing.B) (*Array, []string) {
	b.Helper()
	a := NewArray()
	var paths []string
	for r := 0; r < 16; r++ {
		f, err := bloom.NewForCapacity(10_000, 16)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 2_000; j++ {
			p := fmt.Sprintf("/bench/r%d/dir%d/file%d", r, j%37, j)
			f.AddString(p)
			if j%200 == 0 {
				paths = append(paths, p)
			}
		}
		a.Put(r, f)
	}
	return a, paths
}

// BenchmarkArrayQuery compares the hash-once probe against the seed
// implementation's cost model on a 16-replica array. The "perprobe-rehash"
// case replicates what the array query did before the digest pipeline:
// one []byte conversion per query, a full key hash plus k mod reductions
// per filter, a fresh hits slice, and a per-query sort. The "digest" case
// is the shipped path: hash once, k positions once, 16×k word loads, hits
// appended into a reused buffer in order.
func BenchmarkArrayQuery(b *testing.B) {
	a, paths := benchArray(b)

	b.Run("perprobe-rehash", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			key := []byte(paths[i%len(paths)])
			var hits []int
			for _, e := range a.snapshot() {
				if e.f.Contains(key) {
					hits = append(hits, e.id)
				}
			}
			sort.Ints(hits)
			if len(hits) == 0 {
				b.Fatal("populated key missed")
			}
		}
	})

	b.Run("digest", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]int, 0, 16)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d := bloom.NewDigestString(paths[i%len(paths)])
			r := a.QueryDigest(&d, buf)
			buf = r.Hits
			if len(r.Hits) == 0 {
				b.Fatal("populated key missed")
			}
		}
	})
}

// BenchmarkFilterContainsDigest isolates one replica probe: the digest case
// is k word loads against cached positions.
func BenchmarkFilterContainsDigest(b *testing.B) {
	f, err := bloom.NewForCapacity(50_000, 16)
	if err != nil {
		b.Fatal(err)
	}
	const key = "/bench/one/replica/probe.dat"
	f.AddString(key)

	b.Run("contains-rehash", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !f.ContainsString(key) {
				b.Fatal("miss")
			}
		}
	})
	b.Run("digest", func(b *testing.B) {
		b.ReportAllocs()
		d := bloom.NewDigestString(key)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !f.ContainsDigest(&d) {
				b.Fatal("miss")
			}
		}
	})
}
