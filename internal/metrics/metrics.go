// Package metrics provides the engine's two counting structures:
// fixed-boundary latency histograms with percentile estimation, and per-level
// hit-rate tallies for the four-level query hierarchy.
//
// LevelTally is safe for concurrent use so the parallel lookup engine can
// record from many workers; Histogram is single-writer.
package metrics

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-boundary latency histogram supporting percentile
// estimation by linear interpolation within buckets.
type Histogram struct {
	bounds []time.Duration // ascending upper bounds; implicit +Inf last bucket
	counts []uint64
	total  uint64
}

// NewHistogram creates a histogram with the given ascending bucket upper
// bounds. An implicit overflow bucket catches samples beyond the last bound.
func NewHistogram(bounds []time.Duration) (*Histogram, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("metrics: histogram needs at least one bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("metrics: bounds not ascending at %d", i)
		}
	}
	b := make([]time.Duration, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]uint64, len(bounds)+1)}, nil
}

// DefaultLatencyHistogram covers 1 µs – 10 s in logarithmic steps, suitable
// for the mixed memory/disk/network latencies of the simulator.
func DefaultLatencyHistogram() *Histogram {
	var bounds []time.Duration
	for _, base := range []time.Duration{time.Microsecond, 10 * time.Microsecond,
		100 * time.Microsecond, time.Millisecond, 10 * time.Millisecond,
		100 * time.Millisecond, time.Second} {
		for _, mult := range []time.Duration{1, 2, 5} {
			bounds = append(bounds, base*mult)
		}
	}
	bounds = append(bounds, 10*time.Second)
	h, err := NewHistogram(bounds)
	if err != nil {
		panic(fmt.Sprintf("metrics: default histogram invalid: %v", err))
	}
	return h
}

// Observe adds one sample.
func (h *Histogram) Observe(d time.Duration) {
	idx := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= d })
	h.counts[idx]++
	h.total++
}

// Count returns total samples.
func (h *Histogram) Count() uint64 { return h.total }

// Quantile estimates the q-quantile (q in [0,1]) by linear interpolation.
// Samples in the overflow bucket are attributed to the last finite bound.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(h.total)
	var cum float64
	for i, c := range h.counts {
		next := cum + float64(c)
		if next >= target && c > 0 {
			lo := time.Duration(0)
			if i > 0 {
				lo = h.bounds[min(i-1, len(h.bounds)-1)]
			}
			hi := h.bounds[min(i, len(h.bounds)-1)]
			if hi <= lo {
				return hi
			}
			frac := (target - cum) / float64(c)
			return lo + time.Duration(frac*float64(hi-lo))
		}
		cum = next
	}
	return h.bounds[len(h.bounds)-1]
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// LevelTally counts which level of the four-level hierarchy served each
// query, the raw data behind Fig 13. Counters are atomic, so many lookup
// workers can record concurrently, and striped: each of a few stripes sits
// on cache lines of its own, so workers that record into different stripes
// (RecordAt) never write the same line. The readers sum the stripes, which
// is exact once the writers have stopped. The zero value is ready. A
// LevelTally must not be copied after first use.
type LevelTally struct {
	stripes [tallyStripes]tallyStripe
}

// tallyStripes is the number of stripes; RecordAt reduces its stripe modulo
// it.
const tallyStripes = 8

// tallyStripe is one stripe's counters, padded to two cache lines so that no
// line holds counters of two stripes however the array is aligned.
type tallyStripe struct {
	counts [5]atomic.Uint64 // index 1..4 = L1..L4
	_      [128 - 8*5]byte
}

// Record notes a query served at level (1–4) in stripe 0. Out-of-range
// levels are ignored.
func (t *LevelTally) Record(level int) { t.RecordAt(0, level) }

// RecordAt notes a query served at level (1–4) in the given stripe (any
// non-negative number). Out-of-range levels are ignored.
func (t *LevelTally) RecordAt(stripe, level int) {
	if level >= 1 && level <= 4 {
		t.stripes[stripe%tallyStripes].counts[level].Add(1)
	}
}

// Total returns the number of recorded queries.
func (t *LevelTally) Total() uint64 {
	var sum uint64
	for l := 1; l <= 4; l++ {
		sum += t.Count(l)
	}
	return sum
}

// Fraction returns the share of queries served at level, in [0,1].
func (t *LevelTally) Fraction(level int) float64 {
	total := t.Total()
	if total == 0 || level < 1 || level > 4 {
		return 0
	}
	return float64(t.Count(level)) / float64(total)
}

// Count returns raw hits at one level.
func (t *LevelTally) Count(level int) uint64 {
	if level < 1 || level > 4 {
		return 0
	}
	var sum uint64
	for i := range t.stripes {
		sum += t.stripes[i].counts[level].Load()
	}
	return sum
}

// Counts returns the raw hits at every level (indices 1–4; index 0 unused).
func (t *LevelTally) Counts() [5]uint64 {
	var out [5]uint64
	for l := 1; l <= 4; l++ {
		out[l] = t.Count(l)
	}
	return out
}
