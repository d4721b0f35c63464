// Package metrics provides the per-level hit-rate tally of the four-level
// query hierarchy, safe for concurrent use so the parallel lookup engine can
// record from many workers.
package metrics

import "sync/atomic"

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
