// Package bfa implements the plain Bloom Filter Array baseline of Table 5:
// each MDS keeps one filter per server (its own plus N−1 replicas) at a
// fixed bit/file ratio, with no LRU front end and no grouping. It exists to
// anchor the memory-overhead comparison (BFA8 is the normalization unit of
// Table 5) and as the simplest possible probabilistic lookup scheme.
package bfa

import (
	"fmt"
	"math/rand"
	"sort"

	"ghba/internal/bloom"
	"ghba/internal/bloomarray"
)

// Cluster is a plain-BFA deployment.
type Cluster struct {
	bitsPerFile   float64
	expectedFiles uint64

	locals map[int]*bloom.Filter
	arrays map[int]*bloomarray.Array
	homes  map[string]int
	rng    *rand.Rand
}

// New builds a BFA cluster of n servers with filters sized for
// expectedFiles at bitsPerFile (8 for BFA8, 16 for BFA16).
func New(n int, expectedFiles uint64, bitsPerFile float64, seed int64) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("bfa: need at least one MDS, got %d", n)
	}
	c := &Cluster{
		bitsPerFile:   bitsPerFile,
		expectedFiles: expectedFiles,
		locals:        make(map[int]*bloom.Filter, n),
		arrays:        make(map[int]*bloomarray.Array, n),
		homes:         make(map[string]int),
		rng:           rand.New(rand.NewSource(seed)),
	}
	for i := 0; i < n; i++ {
		f, err := bloom.NewForCapacity(expectedFiles, bitsPerFile)
		if err != nil {
			return nil, fmt.Errorf("bfa: sizing filter: %w", err)
		}
		c.locals[i] = f
		c.arrays[i] = bloomarray.NewArray()
	}
	c.syncAll()
	return c, nil
}

func (c *Cluster) syncAll() {
	for origin, f := range c.locals {
		for id, arr := range c.arrays {
			_ = id
			arr.Put(origin, f.Clone())
		}
	}
}

// NumMDS returns the number of servers.
func (c *Cluster) NumMDS() int { return len(c.locals) }

// MDSIDs returns server IDs ascending.
func (c *Cluster) MDSIDs() []int {
	ids := make([]int, 0, len(c.locals))
	for id := range c.locals {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// AddFile homes a file at a random server.
func (c *Cluster) AddFile(path string) int {
	ids := c.MDSIDs()
	home := ids[c.rng.Intn(len(ids))]
	c.locals[home].AddString(path)
	c.homes[path] = home
	return home
}

// Sync refreshes every array from the current local filters.
func (c *Cluster) Sync() { c.syncAll() }

// Lookup queries one server's array, returning the candidate home MDSs.
func (c *Cluster) Lookup(path string, entry int) bloomarray.Result {
	arr := c.arrays[entry]
	if arr == nil {
		return bloomarray.Result{}
	}
	d := bloom.NewDigestString(path)
	return arr.QueryDigest(&d, nil)
}

// HomeOf returns the ground-truth home (-1 when absent).
func (c *Cluster) HomeOf(path string) int {
	home, ok := c.homes[path]
	if !ok {
		return -1
	}
	return home
}

// ArrayBytes returns the per-MDS array footprint: N filters at the
// configured ratio — the quantity Table 5 normalizes against.
func (c *Cluster) ArrayBytes(id int) uint64 {
	arr := c.arrays[id]
	if arr == nil {
		return 0
	}
	return arr.SizeBytes()
}

// BitsPerFile returns the configured filter ratio.
func (c *Cluster) BitsPerFile() float64 { return c.bitsPerFile }
