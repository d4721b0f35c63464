package homeindex

import (
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"testing"
)

// liveHeapBytes is the live heap build's result holds: the median of three
// builds, each the live bytes the runtime marked after collecting on either
// side of it (the measure metastore's TestStoreFootprint takes).
func liveHeapBytes(build func() any) int64 {
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() int64 {
		runtime.GC()
		runtime.GC() // frees what the first moved into sync.Pool victims
		metrics.Read(live)
		return int64(live[0].Value.Uint64())
	}
	var runs [3]int64
	for i := range runs {
		before := read()
		v := build()
		runs[i] = read() - before
		runtime.KeepAlive(v)
	}
	slices.Sort(runs[:])
	return runs[1]
}

// TestHomeIndexFootprint loads 1k, 10k, 24k (the TCP workloads' namespace)
// and 120k (the simulator workloads') paths into the index and, for scale,
// into the map[string]int both engines once kept, and requires the index to
// cost at most 16 B/file at 24k and 20 at 120k. Path bytes are built
// beforehand and shared, so only the structure is counted. On amd64 with
// go1.24 the index costs 18.6 / 13.5 / 14.2 / 17.5 B/file — 8-byte cells in
// tables 46–61% full, plus the 64 shard headers — and the map 54.7 / 43.7 /
// 36.4 / 55.7.
func TestHomeIndexFootprint(t *testing.T) {
	limits := map[int]float64{24_000: 16, 120_000: 20}
	for _, n := range []int{1_000, 10_000, 24_000, 120_000} {
		paths := make([]string, n)
		for i := range paths {
			paths[i] = "/fp/dir" + strconv.Itoa(i%100) + "/file" + strconv.Itoa(i)
		}
		index := liveHeapBytes(func() any {
			h := New()
			for i, p := range paths {
				h.Insert(p, i%30)
			}
			return h
		})
		legacy := liveHeapBytes(func() any {
			m := make(map[string]int)
			for i, p := range paths {
				m[p] = i % 30
			}
			return m
		})
		perFile, mapPerFile := float64(index)/float64(n), float64(legacy)/float64(n)
		t.Logf("%7d files: home index %5.1f B/file, map[string]int %5.1f B/file", n, perFile, mapPerFile)
		if limit, ok := limits[n]; ok && perFile > limit {
			t.Errorf("%d files: home index %.1f B/file, want ≤ %.0f", n, perFile, limit)
		}
	}
}
