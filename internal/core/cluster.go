package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ghba/internal/bloomarray"
	"ghba/internal/group"
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
// the current epoch — an immutable topology snapshot published through an
// atomic pointer — and walk the four-level hierarchy against it. Filter
// probes along the way are word-wise atomic; the replica arrays publish
// copy-on-write snapshots of their own; and the L1 array publishes its
// bit-sliced slab and lane assignment the same way — a rotation or Forget
// copies, only key inserts OR bits into the published slab, atomically, so a
// probe racing one can at worst miss that key (see bloomarray.LRUArray) —
// so a lookup races nothing.
// The only shared mutable state a lookup touches is internally synchronized
// observability (atomic tallies, the mutex-guarded message counter), the L1
// learning write, which locks only for a key L1 has not seen, and, in queued
// mode, the queue model's next-free slots under queueMu — one critical section
// per multicast round, never held across a filter probe. At L4 a lookup also
// reads the home index under one shard's read lock.
//
// Writers keep the existing mutex discipline among themselves: c.mu is the
// topology lock. Mutations (Apply, ApplyWith) and replica shipping
// (PushUpdate, Flush) hold mu as readers and synchronize through
// finer-grained structures — the sharded home index, per-node locks, ship
// stripes. Reconfiguration — Populate, AddMDS, RemoveMDS, FailMDS — takes mu
// exclusively because it rewrites the node map and the layout the writer
// paths navigate by, and republishes the epoch before releasing it. A
// lookup that loaded the previous epoch completes against that consistent
// older topology, which is indistinguishable from it having run just before
// the reconfiguration committed.
//
// Creates and deletes on different MDSes therefore proceed in parallel;
// operations on the same node serialize only on that node's lock, and
// replica shipping serializes only on the holder arrays it touches.
//
// Methods suffixed *Locked assume c.mu is already held (read or write as
// documented) and must not be called without it.
type Cluster struct {
	cfg Config

	// mu guards the topology: nodes, layout, ids and nextMDSID.
	mu sync.RWMutex

	nodes map[int]*mds.Node
	// layout is the group layer — who is grouped with whom, who holds which
	// replica. Reconfiguration replaces it with the successor internal/group
	// plans; the nodes' replica arrays are kept equal to it.
	layout group.Layout

	// ids caches the sorted MDS IDs so the hot path does not rebuild and
	// sort the slice on every random entry draw. Maintained on every
	// membership change; treat as immutable between changes.
	ids []int

	// epoch is the published topology snapshot the lock-free read path
	// navigates by. Reconfiguration rebuilds it under the write lock
	// (publishEpochLocked) and swaps it in as its last visible act; the
	// snapshot itself is immutable forever after.
	epoch atomic.Pointer[epoch]

	// homes is the ground truth of file → home MDS, used for placement and
	// final verification (what the disks would answer): one tag-and-home
	// cell per file, confirmed against the home's store. Sharded and
	// internally locked so concurrent creates/deletes on different paths
	// never contend.
	homes *homeShards

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
	// so publishEpochLocked keeps it nextMDSID long and the lookup walk
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
		cfg:    cfg,
		nodes:  make(map[int]*mds.Node),
		layout: group.NewLayout(cfg.NumMDS, cfg.MaxGroupSize),
		homes:  newHomeShards(),
		ships:  shipq.New(cfg.ShipBatch),
		lru:    lru,
		mem:    cfg.memoryModel(),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		msgs:   simnet.NewCounter(),
	}

	for i := 0; i < cfg.NumMDS; i++ {
		node, err := mds.NewNode(i, cfg.Node)
		if err != nil {
			return nil, fmt.Errorf("core: creating MDS %d: %w", i, err)
		}
		c.nodes[i] = node
	}
	c.nextMDSID = cfg.NumMDS
	c.refreshIDsLocked()

	// Every group mirrors every outside MDS: each holder starts with its
	// origin's (empty) last-shipped snapshot.
	for _, g := range c.layout.Groups() {
		for _, r := range g.Replicas {
			c.nodes[r.Holder].InstallReplica(r.Origin, c.nodes[r.Origin].Shipped())
		}
	}
	c.publishEpochLocked()
	return c, nil
}

// refreshIDsLocked rebuilds the sorted MDS ID cache after a membership
// change. Requires the write lock.
func (c *Cluster) refreshIDsLocked() {
	ids := make([]int, 0, len(c.nodes))
	for id := range c.nodes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	c.ids = ids
}

// epoch is one immutable topology snapshot: everything a lookup needs to
// navigate the hierarchy, frozen at a reconfiguration boundary. Nothing in
// an epoch is ever mutated after publication — reconfiguration builds a new
// one and swaps the cluster's pointer — so readers traverse it without
// synchronization. The node pointers it holds refer to live servers whose
// filter state keeps evolving; probing those is separately safe (word-wise
// atomic filters, copy-on-write arrays).
type epoch struct {
	// ids is the sorted MDS population; L4 walks it in this order so
	// queued-mode replay stays deterministic.
	ids []int
	// nodes maps MDS ID → server for every member of this epoch.
	nodes map[int]*mds.Node
	// members maps each MDS ID to the sorted member IDs of its group —
	// the L3 multicast targets as seen from that entry. Member slices are
	// shared between co-grouped entries and immutable.
	members map[int][]int
}

// currentEpoch returns the published topology snapshot.
func (c *Cluster) currentEpoch() *epoch {
	return c.epoch.Load()
}

// publishEpochLocked freezes the current topology into a fresh epoch and
// publishes it. Requires the write lock; every reconfiguration calls it
// after the node/group maps reach their new consistent state.
func (c *Cluster) publishEpochLocked() {
	// A slot for every ID this epoch can name, before any lookup can load
	// it; lookups still walking an older epoch only name smaller IDs.
	c.queueMu.Lock()
	if grow := c.nextMDSID - len(c.queue); grow > 0 {
		c.queue = append(c.queue, make([]time.Duration, grow)...)
	}
	c.queueMu.Unlock()
	e := &epoch{
		ids:     append([]int(nil), c.ids...),
		nodes:   make(map[int]*mds.Node, len(c.nodes)),
		members: make(map[int][]int, len(c.nodes)),
	}
	for id, n := range c.nodes {
		e.nodes[id] = n
	}
	for _, g := range c.layout.Groups() {
		for _, id := range g.Members {
			e.members[id] = g.Members
		}
	}
	c.epoch.Store(e)
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
func (c *Cluster) NumMDS() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.nodes)
}

// NumGroups returns the current number of groups.
func (c *Cluster) NumGroups() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.layout.Groups())
}

// MDSIDs returns all server IDs in ascending order. The returned slice is
// the caller's to keep.
func (c *Cluster) MDSIDs() []int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]int, len(c.ids))
	copy(out, c.ids)
	return out
}

// Node returns the MDS with the given ID, or nil.
func (c *Cluster) Node(id int) *mds.Node {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.nodes[id]
}

// Layout returns the current group layout, an immutable value.
func (c *Cluster) Layout() group.Layout {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.layout
}

// Messages exposes the message counter (internally synchronized).
func (c *Cluster) Messages() *simnet.Counter { return c.msgs }

// Tally exposes the per-level hit counts (Fig 13); safe to read while
// lookups run.
func (c *Cluster) Tally() *metrics.LevelTally { return &c.tally }

// HomeOf returns the ground-truth home of a path (-1 when absent).
func (c *Cluster) HomeOf(path string) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	home, ok := c.homes.get(path, c.nodes)
	if !ok {
		return -1
	}
	return home
}

// FileCount returns the number of files in the system.
func (c *Cluster) FileCount() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.homes.len()
}

// randomMDSLocked draws a uniform MDS ID from the cluster's own RNG.
// Requires c.mu (read suffices); takes rngMu internally.
func (c *Cluster) randomMDSLocked() int {
	c.rngMu.Lock()
	i := c.rng.Intn(len(c.ids))
	c.rngMu.Unlock()
	return c.ids[i]
}

// RandomMDS returns a uniformly chosen MDS ID — the paper's "each request
// can randomly choose an MDS to carry out query operations". It draws from
// the cluster's internal RNG; parallel lookup workers should instead draw
// entries from their own RNG (see LookupWith) to avoid serializing on it.
func (c *Cluster) RandomMDS() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.randomMDSLocked()
}

// randomMDSIn draws a uniform MDS ID from the epoch's population using the
// cluster RNG (under rngMu). The lock-free entry-fallback path uses it so a
// stale entry ID never aborts a lookup.
func (c *Cluster) randomMDSIn(e *epoch) int {
	c.rngMu.Lock()
	i := c.rng.Intn(len(e.ids))
	c.rngMu.Unlock()
	return e.ids[i]
}

// Populate homes every path yielded by the iterator at a uniformly random
// MDS ("all MDSs are initially populated randomly") and then synchronizes
// all replicas. The iterator keeps namespaces streamable at scale.
func (c *Cluster) Populate(each func(fn func(path string) bool)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	each(func(path string) bool {
		// A path the namespace already holds keeps its home (the draw is
		// spent either way): homing it again would leave it in the old
		// home's store as well, for a stale verify to confirm.
		node := c.nodes[c.randomMDSLocked()]
		c.homes.putIfAbsentThen(path, node.ID(), c.nodes, func() { node.AddFile(path) })
		return true
	})
	c.syncAllReplicasLocked()
}

// syncAllReplicasLocked ships every MDS's filter to all its holders, bringing
// the whole system to a consistent snapshot after bulk population;
// incremental updates flow through the XOR-delta path. Bulk loading is not
// update traffic, so the messages are not booked. Requires the write lock.
func (c *Cluster) syncAllReplicasLocked() {
	for _, id := range c.ids {
		c.shipOriginLocked(id)
	}
	// Everything just shipped; nothing is left to coalesce.
	c.ships.Drain()
}

// CheckInvariants verifies the global-mirror-image invariant for every
// group, on the books (group.Layout.Check) and on the servers: each member's
// replica array holds exactly what the layout records, and every replica is
// bit for bit what its origin last shipped. It also checks the namespace
// half of the guarantee exactly: every path a server stores resolves through
// the home index to that server, and the index holds no cell a stored path
// does not account for — a file moved to another store behind the index's
// back, or left behind in a store the index no longer names, fails it. It
// takes the topology lock exclusively; mutations and ships hold it shared,
// so the check is exact even beside running workers. Tests and the
// simulator's self-checks call this after reconfigurations.
func (c *Cluster) CheckInvariants() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.layout.Check(c.ids); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	for _, g := range c.layout.Groups() {
		for _, m := range g.Members {
			node := c.nodes[m]
			if held := g.HeldBy(m); !slices.Equal(node.Replicas().IDs(), held) {
				return fmt.Errorf("core: MDS %d stores replicas of %v, the layout records %v", m, node.Replicas().IDs(), held)
			}
		}
		for _, r := range g.Replicas {
			drift, err := c.nodes[r.Holder].Replicas().Get(r.Origin).XorBits(c.nodes[r.Origin].Shipped())
			if err != nil || drift != 0 {
				return fmt.Errorf("core: MDS %d's replica of %d is %d bits from what %d last shipped (%v)", r.Holder, r.Origin, drift, r.Origin, err)
			}
		}
	}
	return c.homes.check(c.ids, c.nodes)
}
