// Package mds implements the state and level-local behaviour of one metadata
// server: its authoritative metadata store, the Bloom filter summarizing its
// local files, the L1 LRU array, the replica array (the L2 segment array in
// G-HBA, the global array in the HBA baseline), and the XOR-delta update
// protocol of Section 3.4. Which groupmate holds which replica is not a
// node's state: the cluster's group.Layout records it (the paper keeps an
// IDBFA per member for this).
//
// A Node answers the "what do you know locally" half of every query level;
// the routing between nodes — multicasts, forwards, verification — belongs
// to the scheme layer (internal/core) that owns the topology.
package mds

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ghba/internal/bloom"
	"ghba/internal/bloomarray"
	"ghba/internal/metastore"
)

// Config sizes a node's filter structures.
type Config struct {
	// ExpectedFiles sizes the local Bloom filter (files homed per MDS).
	ExpectedFiles uint64
	// BitsPerFile is the filter ratio m/n. G-HBA "can afford to increase
	// the number of bits per file" thanks to its memory savings; 16 is the
	// default, 8 matches the BFA8 baseline of Table 5.
	BitsPerFile float64
	// LRUCapacity is the per-home-MDS generation size of the L1 array.
	LRUCapacity uint64
	// LRUBitsPerFile is the filter ratio of L1 generations.
	LRUBitsPerFile float64
	// Layout selects the bit layout for every filter the node creates (the
	// local filter and L1 generations — and, transitively, every replica
	// shipped from it). The zero value is the classic layout, which keeps
	// existing snapshots, wire traffic, and fixed-seed runs byte-identical;
	// LayoutBlocked answers each filter probe from one cache line.
	Layout bloom.Layout
}

// DefaultConfig returns the sizing used throughout the experiments.
func DefaultConfig() Config {
	return Config{
		ExpectedFiles:  50_000,
		BitsPerFile:    16,
		LRUCapacity:    2_048,
		LRUBitsPerFile: 16,
	}
}

// LRUCapacityFor derives the L1 generation size for a server expected to home
// files files: one sixteenth of them, and never fewer than 64 — the hot set
// is a small share of the namespace, but a generation that rotates every few
// inserts remembers nothing. The facade and cmd/mdsd both size L1 with it.
func LRUCapacityFor(files uint64) uint64 {
	return max(files/16, 64)
}

func (c Config) validate() error {
	if c.ExpectedFiles == 0 || c.BitsPerFile <= 0 {
		return fmt.Errorf("mds: invalid filter sizing: files=%d bits=%f",
			c.ExpectedFiles, c.BitsPerFile)
	}
	if c.LRUCapacity == 0 || c.LRUBitsPerFile <= 0 {
		return fmt.Errorf("mds: invalid LRU sizing: cap=%d bits=%f",
			c.LRUCapacity, c.LRUBitsPerFile)
	}
	return nil
}

// Node is one metadata server.
//
// Concurrency model: the sharded cluster write path mutates different nodes
// from different goroutines while lookup workers probe them, so each node
// carries its own lock — but only for writers. The query path is lock-free:
// the local filter is published through an atomic pointer (a rebuild swaps in
// a freshly built filter rather than clearing in place, so readers never
// observe a half-rebuilt filter), in-place inserts synchronize word-wise
// inside bloom.Filter, and the LRU and replica arrays publish copy-on-write
// snapshots. mu serializes the mutators of the local filter and guards the
// last-shipped snapshot, the distance between the two and the deletion
// counter — the state the create/delete/ship protocol reads and writes. The
// store synchronizes internally.
type Node struct {
	id  int
	cfg Config

	mu sync.RWMutex

	store *metastore.Store
	local atomic.Pointer[bloom.Filter]

	lru      *bloomarray.LRUArray
	replicas *bloomarray.Array

	// lastShipped is the snapshot of the local filter most recently
	// distributed to remote replica holders; the XOR delta against it
	// drives the update protocol.
	lastShipped *bloom.Filter

	// delta is the Hamming distance between the local filter and
	// lastShipped, kept exact in O(k) per create: AddFile adds what its
	// insert moved, Ship zeroes it, and only a wholesale filter replacement
	// (rebuild, snapshot load) re-scans the vectors.
	delta uint64

	// deletesSinceRebuild counts deletions whose bits are still set in the
	// local filter; a rebuild clears them.
	deletesSinceRebuild uint64
}

// NewNode creates a node with the given ID and sizing.
func NewNode(id int, cfg Config) (*Node, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	local, err := bloom.NewForCapacityLayout(cfg.ExpectedFiles, cfg.BitsPerFile, cfg.Layout)
	if err != nil {
		return nil, fmt.Errorf("mds: sizing local filter: %w", err)
	}
	lru, err := bloomarray.NewLRUArrayLayout(cfg.LRUCapacity, cfg.LRUBitsPerFile, cfg.Layout)
	if err != nil {
		return nil, fmt.Errorf("mds: sizing LRU array: %w", err)
	}
	n := &Node{
		id:          id,
		cfg:         cfg,
		store:       metastore.NewStore(),
		lru:         lru,
		replicas:    bloomarray.NewArray(),
		lastShipped: local.Clone(),
	}
	n.local.Store(local)
	return n, nil
}

// ID returns the node's MDS identifier.
func (n *Node) ID() int { return n.id }

// Store exposes the authoritative metadata store.
func (n *Node) Store() *metastore.Store { return n.store }

// Replicas exposes the replica array (segment array in G-HBA).
func (n *Node) Replicas() *bloomarray.Array { return n.replicas }

// LocalFilter returns the currently published filter over locally homed
// files. Callers must not mutate it; use AddFile/DeleteFile. Probing it is
// safe at any time (filter reads are word-wise atomic), but the pointer is a
// snapshot: a concurrent rebuild publishes a replacement, after which the
// returned filter no longer receives inserts.
func (n *Node) LocalFilter() *bloom.Filter { return n.local.Load() }

// FileCount returns the number of files homed here.
func (n *Node) FileCount() int { return n.store.Len() }

// AddFile homes a file at this node: metadata is stored and the local filter
// updated.
func (n *Node) AddFile(path string) {
	n.store.PutPath(path)
	n.mu.Lock()
	defer n.mu.Unlock()
	moved, err := n.local.Load().AddStringXor(path, n.lastShipped)
	if err != nil {
		panic(geometryDiverged(err))
	}
	// moved is negative only for bits lastShipped still has from before a
	// rebuild cleared them, each of which delta already counts.
	n.delta = uint64(int64(n.delta) + int64(moved))
}

// geometryDiverged words the panic for a local/lastShipped geometry mismatch:
// both are created from one Config and a snapshot of another geometry is
// refused at load, so reaching it is internal corruption.
func geometryDiverged(err error) string {
	return fmt.Sprintf("mds: local/lastShipped geometry diverged: %v", err)
}

// DeleteFile removes a file from this node. The local Bloom filter cannot
// unset bits, so the filter goes stale until RebuildIfStale fires; the store
// answer stays authoritative. Reports whether the file was homed here.
func (n *Node) DeleteFile(path string) bool {
	ok := n.store.Delete(path)
	if ok {
		n.mu.Lock()
		n.deletesSinceRebuild++
		n.mu.Unlock()
	}
	return ok
}

// HasFile reports authoritatively whether the file is homed here (the "disk
// verify" behind a positive L4 answer; the caller charges the disk cost).
func (n *Node) HasFile(path string) bool { return n.store.Has(path) }

// LocalPositiveDigest reports whether the local filter answers positively for
// a pre-hashed path — the memory-speed part of an L4 check. A negative is
// definitive (no false negatives for undeleted files); a positive requires
// verification. k word loads against the published filter, no lock, no
// hashing.
func (n *Node) LocalPositiveDigest(d *bloom.Digest) bool {
	return n.local.Load().ContainsDigest(d)
}

// DeletesSinceRebuild returns how many deletions the local filter has not
// yet absorbed; schemes use it to schedule rebuilds.
func (n *Node) DeletesSinceRebuild() uint64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.deletesSinceRebuild
}

// rebuildLocked regenerates the local filter from the store, clearing the
// stale bits deletions left, and publishes it with a pointer swap. Building
// aside (rather than clearing and re-adding in place) keeps the rebuild
// invisible to lock-free readers: they probe either the old filter (stale
// bits and all) or the complete new one, never a transiently empty vector
// that would produce false negatives. Requires n.mu.
func (n *Node) rebuildLocked() {
	fresh, err := bloom.NewForCapacityLayout(n.cfg.ExpectedFiles, n.cfg.BitsPerFile, n.cfg.Layout)
	if err != nil {
		// Geometry was validated in NewNode; reaching here means internal
		// corruption, not caller error.
		panic(fmt.Sprintf("mds: invalid rebuild geometry: %v", err))
	}
	n.store.Range(func(md metastore.Metadata) bool {
		fresh.AddString(md.Path)
		return true
	})
	n.local.Store(fresh)
	n.deletesSinceRebuild = 0
	// The filter was replaced wholesale: re-scan for the distance.
	if n.delta, err = fresh.XorBits(n.lastShipped); err != nil {
		panic(geometryDiverged(err))
	}
}

// The protocol thresholds both backends run at. The simulator's engine and
// the prototype's daemons must agree on them for a fixed-seed trace to ship
// and rebuild at the same operations on either (the sim ≡ TCP equivalence
// tests depend on it), so they are written once, here.
const (
	// DefaultUpdateThresholdBits is the XOR-delta staleness threshold handed
	// to NeedsShip: a home ships its filter once it drifted this many bits
	// from the last shipped snapshot.
	DefaultUpdateThresholdBits uint64 = 64
	// RebuildDeleteThreshold is the deletion count handed to RebuildIfStale.
	RebuildDeleteThreshold uint64 = 10_000
)

// RebuildIfStale rebuilds the local filter when at least threshold deletions
// have accumulated since the last rebuild, reporting whether it did. The
// check and the rebuild happen under one lock acquisition so concurrent
// deleters on the same node cannot both trigger a rebuild for the same
// batch of stale bits.
func (n *Node) RebuildIfStale(threshold uint64) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.deletesSinceRebuild < threshold {
		return false
	}
	n.rebuildLocked()
	return true
}

// DeltaBits returns the Hamming distance between the local filter and the
// snapshot last shipped to replica holders — the staleness measure of the
// XOR-delta protocol.
func (n *Node) DeltaBits() uint64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.delta
}

// NeedsShip reports whether the local filter drifted at least thresholdBits
// from the last shipped snapshot.
func (n *Node) NeedsShip(thresholdBits uint64) bool {
	return n.DeltaBits() >= thresholdBits
}

// Ship returns a snapshot of the local filter and records it as the last
// shipped one. The caller distributes the snapshot and charges message
// costs. The snapshot is shared with the node's own staleness tracking and
// may be installed at several holders, so it must be treated as immutable.
func (n *Node) Ship() *bloom.Filter {
	n.mu.Lock()
	defer n.mu.Unlock()
	snap := n.local.Load().Clone()
	n.lastShipped = snap
	n.delta = 0
	return snap
}

// Shipped returns the snapshot Ship last handed out — what every holder of
// this node's replica has — without touching the staleness tracking. A member
// that must acquire the replica outside an update (a split, a failover, a
// restart) gets this, not a fresh Ship: a Ship for one holder's benefit would
// zero the drift every other holder's older copy is measured against. The
// snapshot is shared and must be treated as immutable.
func (n *Node) Shipped() *bloom.Filter {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.lastShipped
}

// InstallReplica stores (or refreshes) the replica of origin's filter.
func (n *Node) InstallReplica(origin int, f *bloom.Filter) {
	n.replicas.Put(origin, f)
}

// DropReplica removes origin's replica, returning it (nil if absent).
func (n *Node) DropReplica(origin int) *bloom.Filter {
	return n.replicas.Remove(origin)
}

// ReplicaCount returns how many remote replicas this node stores.
func (n *Node) ReplicaCount() int { return n.replicas.Len() }

// QueryL1Digest runs the L1 check — the LRU array — for a pre-hashed path,
// appending hits into buf (which may be nil).
func (n *Node) QueryL1Digest(d *bloom.Digest, buf []int) bloomarray.Result {
	return n.lru.QueryDigest(d, buf)
}

// QueryL2Digest runs the L2 check for a pre-hashed path: the replica array
// plus the node's own filter (the node is knowledgeable about its own files
// at memory speed), whose ID participates like any replica. The path is
// hashed zero times here — the segment array probe and the own-filter probe
// both replay the digest's cached bit positions. Hits are appended into buf (which may
// be nil) and returned in ascending order. The whole check is lock-free:
// one COW-snapshot scan plus one published-pointer probe.
func (n *Node) QueryL2Digest(d *bloom.Digest, buf []int) bloomarray.Result {
	r := n.replicas.QueryDigest(d, buf)
	if n.LocalPositiveDigest(d) {
		r.Hits = bloomarray.InsertSorted(r.Hits, n.id)
	}
	return r
}

// ObserveHitDigest feeds a pre-hashed confirmed (path → home) mapping into
// the L1 array.
func (n *Node) ObserveHitDigest(d *bloom.Digest, home int) {
	n.lru.ObserveDigest(d, home)
}
