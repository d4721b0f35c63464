package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ghba/internal/bloomarray"
	"ghba/internal/group"
	"ghba/internal/homeindex"
	"ghba/internal/mds"
	"ghba/internal/memmodel"
	"ghba/internal/metrics"
	"ghba/internal/shipq"
	"ghba/internal/simnet"
)

// Cluster is a simulated G-HBA deployment.
//
// Concurrency model: the read path is lock-free, the write path is locked.
//
// Lookups (Lookup, LookupWith, LookupAt) take no lock to read: they load
// the current fleet — an immutable membership snapshot (mds.Fleet)
// published through an atomic pointer — and walk the four-level hierarchy
// against it. Filter probes along the way are word-wise atomic; the replica
// arrays publish copy-on-write snapshots of their own; and the L1 array
// publishes its bit-sliced slab and lane assignment the same way — a
// rotation or Forget copies, only key inserts OR bits into the published
// slab, atomically, so a probe racing one can at worst miss that key (see
// bloomarray.LRUArray) — so a lookup races nothing.
// The only shared mutable state a lookup touches is internally synchronized
// observability (atomic tallies, the mutex-guarded message counter), the L1
// learning write, which locks only for a key L1 has not seen, and, in queued
// mode, the queue model's next-free slots under queueMu — one critical section
// per multicast round, never held across a filter probe. At L4 a lookup also
// reads the home index under one shard's read lock.
//
// The fleet is the cluster's only record of membership. NumMDS, NumGroups,
// MDSIDs, Node, Layout, RandomMDS, Footprint and MeanFootprint read it
// without a lock too.
//
// Writers keep the existing mutex discipline among themselves: c.mu is the
// topology lock. Mutations (Apply, ApplyWith) and replica shipping
// (PushUpdate, Flush) hold mu as readers, act on the fleet loaded under it —
// which stays current while they hold it — and synchronize through
// finer-grained structures: the sharded home index, per-node locks, ship
// stripes. Reconfiguration — Populate, AddMDS, RemoveMDS, FailMDS — takes mu
// exclusively, builds the successor fleet (mds.Fleet.Successor), runs its
// plan, ships and re-homes against it, and publishes it last. A lookup that
// loaded the previous fleet completes against that consistent older
// topology, which is indistinguishable from it having run just before the
// reconfiguration committed.
//
// Creates and deletes on different MDSes therefore proceed in parallel;
// operations on the same node serialize only on that node's lock, and
// replica shipping serializes only on the holder arrays it touches.
//
// Methods suffixed *Locked assume c.mu is already held (read or write as
// documented) and must not be called without it.
type Cluster struct {
	cfg Config

	// mu is the topology lock: writers hold it shared, reconfiguration
	// exclusively, and it guards nextMDSID.
	mu sync.RWMutex

	// fleet is the published membership snapshot — the servers, their
	// nodes and the group layout internal/group plans, whose record of who
	// holds which replica the nodes' replica arrays are kept equal to.
	// Reconfiguration builds its successor under the write lock and swaps it
	// in (publishLocked) as its last visible act; the snapshot itself is
	// immutable forever after. Whenever c.mu is held shared it is the
	// current membership, so writers place, ship and confirm home-index
	// cells through it.
	fleet atomic.Pointer[mds.Fleet]

	// homes is the ground truth of file → home MDS, used for placement and
	// final verification (what the disks would answer): one tag-and-home
	// cell per file, confirmed against the home's store. Sharded and
	// internally locked so concurrent creates/deletes on different paths
	// never contend.
	homes *homeindex.Index

	// ships coalesces replica shipping out of the mutate hot path; see
	// shipQueue. Drained while holding mu (read suffices).
	ships *shipq.Queue

	// shipStripes serialize ships per origin (striped by origin ID): the
	// snapshot taken under the origin's node lock and its installation at
	// every holder must commit as one unit relative to other ships of the
	// same origin, or a holder could keep an older snapshot than the one
	// the origin's staleness tracking assumes it has.
	shipStripes [32]sync.Mutex

	// lru models the replicated LRU Bloom filter arrays of L1: each home
	// MDS maintains a small filter over its recently served files and
	// replicates it to every server. Because the hot set is tiny, the
	// paper treats these replicas as promptly propagated; the simulator
	// models that with one shared array all entry points consult. Every
	// MDS stores its own copy, so the footprint is charged per MDS. The
	// array carries its own lock, so lookup workers may observe into it
	// while holding only the cluster read lock.
	lru *bloomarray.LRUArray

	mem *memmodel.Model

	// rng drives the legacy serial API (RandomMDS, entry fallback) and all
	// writer-side placement decisions. rngMu guards it so the serial API
	// stays usable next to parallel readers; the parallel read path never
	// touches it — workers supply their own RNG via LookupWith.
	rngMu sync.Mutex
	rng   *rand.Rand

	msgs  *simnet.Counter
	tally metrics.LevelTally

	// queue holds each MDS's next-free time, indexed by MDS ID, for the
	// open-loop queuing model used by the latency-versus-load experiments.
	// queueMu guards it so queued lookups (LookupAt, Apply) can run under
	// the topology read lock alongside other workers. IDs are never reused,
	// so publishLocked keeps it nextMDSID long and the lookup walk
	// indexes it without growing it.
	queueMu sync.Mutex
	queue   []time.Duration

	nextMDSID int
}

// New builds a cluster with cfg.NumMDS servers partitioned into groups of at
// most cfg.MaxGroupSize, with empty namespaces and fully synchronized
// (empty) replicas.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	lru, err := bloomarray.NewLRUArrayLayout(cfg.Node.LRUCapacity, cfg.Node.LRUBitsPerFile, cfg.Node.Layout)
	if err != nil {
		return nil, fmt.Errorf("core: sizing LRU array: %w", err)
	}
	c := &Cluster{
		cfg:   cfg,
		homes: homeindex.New(),
		ships: shipq.New(cfg.ShipBatch),
		lru:   lru,
		mem:   cfg.memoryModel(),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		msgs:  simnet.NewCounter(),
	}

	nodes := make(map[int]*mds.Node, cfg.NumMDS)
	for i := 0; i < cfg.NumMDS; i++ {
		node, err := mds.NewNode(i, cfg.Node)
		if err != nil {
			return nil, fmt.Errorf("core: creating MDS %d: %w", i, err)
		}
		nodes[i] = node
	}
	c.nextMDSID = cfg.NumMDS
	f := mds.NewFleet(nodes, group.NewLayout(cfg.NumMDS, cfg.MaxGroupSize))
	c.publishLocked(f)
	// Every group mirrors every outside MDS, starting from its (empty)
	// filter.
	f.Seed()
	return c, nil
}

// publishLocked publishes f as the current membership. Requires the write
// lock; every reconfiguration calls it once its successor fleet is wired.
func (c *Cluster) publishLocked(f *mds.Fleet) {
	// A slot for every ID this fleet can name, before any lookup can load
	// it; lookups still walking an older fleet only name smaller IDs.
	c.queueMu.Lock()
	if grow := c.nextMDSID - len(c.queue); grow > 0 {
		c.queue = append(c.queue, make([]time.Duration, grow)...)
	}
	c.queueMu.Unlock()
	c.fleet.Store(f)
}

// Name identifies the scheme in experiment output. Groups of one are the
// HBA baseline: every server mirrors every other and L3 has nobody to ask.
func (c *Cluster) Name() string {
	if c.cfg.MaxGroupSize == 1 {
		return "HBA"
	}
	return "G-HBA"
}

// NumMDS returns the current number of metadata servers.
func (c *Cluster) NumMDS() int { return len(c.fleet.Load().IDs()) }

// NumGroups returns the current number of groups.
func (c *Cluster) NumGroups() int { return len(c.fleet.Load().Layout().Groups()) }

// MDSIDs returns all server IDs in ascending order. The returned slice is
// the caller's to keep.
func (c *Cluster) MDSIDs() []int { return slices.Clone(c.fleet.Load().IDs()) }

// Node returns the MDS with the given ID, or nil.
func (c *Cluster) Node(id int) *mds.Node { return c.fleet.Load().Node(id) }

// Layout returns the current group layout, an immutable value.
func (c *Cluster) Layout() group.Layout { return c.fleet.Load().Layout() }

// Messages exposes the message counter (internally synchronized).
func (c *Cluster) Messages() *simnet.Counter { return c.msgs }

// Tally exposes the per-level hit counts (Fig 13); safe to read while
// lookups run.
func (c *Cluster) Tally() *metrics.LevelTally { return &c.tally }

// HomeOf returns the ground-truth home of a path (-1 when absent).
func (c *Cluster) HomeOf(path string) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	home, ok := c.homes.Get(path, c.fleet.Load().Holds)
	if !ok {
		return -1
	}
	return home
}

// FileCount returns the number of files in the system.
func (c *Cluster) FileCount() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.homes.Len()
}

// RandomMDS returns a uniformly chosen MDS ID — the paper's "each request
// can randomly choose an MDS to carry out query operations". It draws from
// the cluster's internal RNG; parallel lookup workers should instead draw
// entries from their own RNG (see LookupWith) to avoid serializing on it.
func (c *Cluster) RandomMDS() int { return c.fleet.Load().Draw(lockedRand{c}) }

// Populate homes every path yielded by the iterator at a uniformly random
// MDS ("all MDSs are initially populated randomly") and then synchronizes
// all replicas. The iterator keeps namespaces streamable at scale.
func (c *Cluster) Populate(each func(fn func(path string) bool)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := c.fleet.Load()
	each(func(path string) bool {
		// A path the namespace already holds keeps its home (the draw is
		// spent either way): homing it again would leave it in the old
		// home's store as well, for a stale verify to confirm.
		c.rngMu.Lock()
		node := f.Node(f.Draw(c.rng))
		c.rngMu.Unlock()
		c.homes.PutIfAbsentThen(path, node.ID(), f.Holds, func() { node.AddFile(path) })
		return true
	})
	// Bulk loading is not update traffic: the ships are not booked, and
	// nothing is left to coalesce.
	f.Seed()
	c.ships.Drain()
}

// CheckInvariants verifies the global-mirror-image invariant for every
// group, on the books and on the servers, and the namespace half of the
// guarantee exactly (mds.Fleet.Check): a replica the layout does not record,
// one that drifted from what its origin last shipped, a file moved to another
// store behind the index's back, or left behind in a store the index no
// longer names, fails it. It takes the topology lock exclusively; mutations
// and ships hold it shared, so the check is exact even beside running
// workers. Tests and the simulator's self-checks call this after
// reconfigurations.
func (c *Cluster) CheckInvariants() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.fleet.Load().Check(c.homes); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}
