// Package core (fixture) exercises detrand inside an engine package:
// randomness must enter through explicit *rand.Rand values and map order
// must never reach the output.
package core

import (
	"math/rand"
	"sort"
	"time"
)

type cluster struct {
	rng   *rand.Rand
	nodes map[int]int
}

// Global generator: state depends on every other draw in the process.
func globalDraw() int {
	return rand.Intn(10) // want `rand\.Intn draws from the process-global generator`
}

func globalShuffle(ids []int) {
	rand.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] }) // want `rand\.Shuffle draws from the process-global generator`
}

// Clock seeding: every run is unique, no replay is reproducible.
func clockSeeded() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano())) // want `RNG seeded from time\.Now makes replays unreproducible`
}

// The contract: explicit seed, explicit generator.
func seeded(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Methods on a supplied *rand.Rand are the whole point.
func (c *cluster) draw(rng *rand.Rand) int {
	return rng.Intn(len(c.nodes))
}

// The struct's own seeded rng field is equally fine.
func (c *cluster) drawOwn() int {
	return c.rng.Intn(len(c.nodes))
}

// rand.NewZipf takes its generator explicitly; allowed.
func zipf(rng *rand.Rand) *rand.Zipf {
	return rand.NewZipf(rng, 1.2, 1, 1000)
}

// Map order leaking into a result slice.
func (c *cluster) idsUnsorted() []int {
	var ids []int
	for id := range c.nodes {
		ids = append(ids, id) // want `ids collects map-iteration results; map order is randomized`
	}
	return ids
}

// The repo's idiom: collect, then sort before anything downstream sees it.
func (c *cluster) idsSorted() []int {
	ids := make([]int, 0, len(c.nodes))
	for id := range c.nodes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// sort.Slice with the slice as first argument also counts.
func (c *cluster) idsSortSlice() []int {
	var ids []int
	for id := range c.nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Adapter wrapping counts too: the slice reaches sort.Sort through
// sort.Reverse(sort.IntSlice(...)).
func (c *cluster) idsSortReverse() []int {
	var ids []int
	for id := range c.nodes {
		ids = append(ids, id)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(ids)))
	return ids
}

// Per-iteration scratch dies each round; order cannot leak.
func (c *cluster) scratchPerIteration() int {
	total := 0
	for id, weight := range c.nodes {
		pair := []int{}
		pair = append(pair, id, weight)
		total += pair[0] + pair[1]
	}
	return total
}

// A smallest-value scan that keeps the first winner: equal sizes resolve to
// whichever group the map happens to yield first.
func smallestGroup(groups map[int][]int, limit int) int {
	best, bestSize := -1, limit
	for gi, members := range groups {
		if len(members) < bestSize {
			best, bestSize = gi, len(members) // want `gi is kept by a first-wins comparison inside a map range`
		}
	}
	return best
}

// Breaking ties on the key makes the same scan a pure function of the map.
func smallestGroupTieBroken(groups map[int][]int, limit int) int {
	best, bestSize := -1, limit
	for gi, members := range groups {
		if len(members) < bestSize || (len(members) == bestSize && gi < best) {
			best, bestSize = gi, len(members)
		}
	}
	return best
}

// Ordering the keys themselves has no ties to lose.
func lowestKey(groups map[int][]int) int {
	lowest := -1
	for gi := range groups {
		if lowest < 0 || gi < lowest {
			lowest = gi
		}
	}
	return lowest
}

// Deliberate nondeterminism stays possible, with a visible paper trail.
func jitter() int {
	//ghbavet:ignore demo-only backoff jitter, never replayed
	return rand.Intn(3)
}
