package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ghba/internal/bloom"
	"ghba/internal/bloomarray"
	"ghba/internal/mds"
	"ghba/internal/simnet"
)

// lookupScratch is the reusable per-lookup state of the hash-once pipeline:
// the path digest plus the hit buffers every probe appends into. Pooling it
// keeps the steady-state read path free of heap allocations no matter how
// many replicas a lookup touches.
type lookupScratch struct {
	digest bloom.Digest
	hits   []int // L1/L2 probe buffer
	mhits  []int // per-member L3 probe buffer
	set    []int // L3 union of member hits (sorted, unique)
	// stripe is the message-counter and level-tally stripe the lookup
	// writes. Each scratch draws its own, and sync.Pool hands a processor
	// back the scratch it last returned, so concurrent lookups mostly write
	// different counter cache lines.
	stripe int
}

// scratches numbers the scratch objects the pool has made.
var scratches atomic.Uint32

var scratchPool = sync.Pool{
	New: func() any {
		return &lookupScratch{
			hits:   make([]int, 0, 16),
			mhits:  make([]int, 0, 16),
			set:    make([]int, 0, 16),
			stripe: int(scratches.Add(1)),
		}
	},
}

// putScratch returns scratch to the pool with the digest re-keyed to the
// empty path: pooled objects live indefinitely, and a populated digest would
// carry the last lookup's hash state across unrelated requests. The reset is
// in place — assigning a fresh Digest would copy its whole position cache.
// The hit buffers keep their capacity — that reuse is the point of the pool
// — but the digest is per-path state, not scratch capacity.
func putScratch(s *lookupScratch) {
	s.digest.ResetString("")
	scratchPool.Put(s)
}

// segment is node's filter array the memory budget sizes (mds.Node.Segment),
// each filter priced at VirtualReplicaBytes when that is set.
func (c *Cluster) segment(node *mds.Node) (filters int, bytes uint64) {
	filters, bytes = node.Segment()
	if v := c.cfg.VirtualReplicaBytes; v > 0 {
		bytes = uint64(filters) * v
	}
	return filters, bytes
}

// segmentProbeCost returns the service time of probing an MDS's segment
// array (its replicas plus its own filter), charging disk penalties for the
// spilled fraction under the memory budget.
func (c *Cluster) segmentProbeCost(f *mds.Fleet, id int) time.Duration {
	total, totalBytes := c.segment(f.Node(id))
	return c.mem.ArrayProbeCost(total, totalBytes,
		c.cfg.Cost.MemProbe, c.cfg.Cost.DiskRead, c.cfg.CacheHitRate)
}

// l1ProbeCost returns the cost of checking the replicated LRU array: always
// memory resident (it is deliberately small), one probe per tracked home.
func (c *Cluster) l1ProbeCost() time.Duration {
	entries := c.lru.Entries()
	if entries == 0 {
		entries = 1
	}
	return time.Duration(entries) * c.cfg.Cost.MemProbe
}

// verify charges the forward-and-check of a candidate home: one unicast RTT
// plus a memory probe at the target; the target consults its authoritative
// store (memory-resident index in both the simulator and the prototype).
//
// A candidate absent from the fleet — an MDS that failed or left, whose ID a
// stale filter still answers for — is rejected free of charge: no server
// exists to receive the unicast, so counting a MsgQueryUnicast and an RTT
// would book traffic to a dead daemon (the accounting bug this replaces).
func (c *Cluster) verify(f *mds.Fleet, candidate int, path string, stripe int) (bool, time.Duration) {
	node := f.Node(candidate)
	if node == nil {
		return false, 0
	}
	c.msgs.AddAt(stripe, simnet.MsgQueryUnicast, 1)
	cost := c.cfg.Cost.UnicastRTT + c.cfg.Cost.MemProbe
	return node.HasFile(path), cost
}

// occupy books work on server id's queue for a request that arrived at
// arrival and returns the response time the caller observes (wait +
// service). This is how group and global multicasts consume capacity across
// the system — the effect that makes very large groups counterproductive.
// The caller holds queueMu; a multicast round books all its targets in one
// critical section.
func (c *Cluster) occupy(id int, arrival, work time.Duration) time.Duration {
	start := max(arrival, c.queue[id])
	c.queue[id] = start + work
	return start - arrival + work
}

// LookupWith resolves the home MDS of path starting at the entry MDS,
// walking the four-level critical path of Section 2.3, without queueing
// effects (pure service latency). It updates the per-level tallies and the
// L1 array. A negative or unknown entry is re-drawn uniformly from the
// caller's RNG, the paper's "each request can randomly choose an MDS":
// parallel workers give each goroutine its own seeded RNG, so lookups share
// no mutable state beyond the internally synchronized observability
// structures and a single-worker run is bit-for-bit reproducible.
//
// LookupWith is the lock-free read path: it loads the current fleet and
// takes no lock to read it, so any number of goroutines may call it
// concurrently, also concurrently with reconfiguration (which publishes a
// new fleet; in-flight lookups finish against the one they loaded).
func (c *Cluster) LookupWith(rng *rand.Rand, path string, entry int) LookupResult {
	f := c.fleet.Load()
	if entry < 0 || f.Node(entry) == nil {
		entry = f.Draw(rng)
	}
	return c.lookupFleet(f, path, entry, 0, false)
}

// lookupFleet walks the four-level hierarchy against one membership snapshot,
// reading everything lock-free. The hot path mutates nothing except
// internally synchronized state — the tallies and message counter (in the
// scratch's stripe), the L1 learning write, and (in queued mode) the queue
// model's next-free slots, one queueMu critical section per multicast round.
// The entry must exist in f.
func (c *Cluster) lookupFleet(f *mds.Fleet, path string, entry int, arrival time.Duration, queued bool) LookupResult {
	node := f.Node(entry)

	// Hash once: every filter probe below — L1 generations, segment
	// replicas, group members' arrays, the L1 learning write — replays
	// this digest instead of re-hashing the path.
	s := scratchPool.Get().(*lookupScratch)
	defer putScratch(s)
	d := &s.digest
	d.ResetString(path)

	latency := c.cfg.Cost.ClientRTT
	var server time.Duration

	finish := func(res LookupResult) LookupResult {
		if queued {
			// The entry server processes this request after draining its
			// queue; the wait precedes everything the client observes.
			c.queueMu.Lock()
			latency += c.occupy(entry, arrival, server) - server
			c.queueMu.Unlock()
		}
		res.Path = path
		res.Latency = latency
		res.ServerTime = server
		c.tally.RecordAt(s.stripe, res.Level)
		if res.Found {
			// The home MDS records the access in its LRU filter, whose
			// replica every server consults at L1. The digest carries the
			// hash into the learning write too. The steady-state re-observe
			// path inside writes nothing, and a new key is inserted in place
			// without lock; only a home's first observation or a generation
			// rotation (one slab copy per capacity inserts) locks and
			// allocates.
			c.lru.ObserveDigest(d, res.Home)
		}
		return res
	}

	// L1: the replicated LRU Bloom filter array.
	l1Cost := c.l1ProbeCost()
	latency += l1Cost
	server += l1Cost
	r := c.lru.QueryDigest(d, s.hits)
	s.hits = r.Hits
	if home, ok := r.Unique(); ok {
		ok2, cost := c.verify(f, home, path, s.stripe)
		latency += cost
		if ok2 {
			return finish(LookupResult{Home: home, Found: true, Level: 1})
		}
		// Stale or false L1 hit: fall through to L2 having paid the
		// penalty.
	}

	// L2: the local segment Bloom filter array.
	l2Cost := c.segmentProbeCost(f, entry)
	latency += l2Cost
	server += l2Cost
	r2 := node.QueryL2Digest(d, s.hits)
	s.hits = r2.Hits
	if home, ok := r2.Unique(); ok {
		if home == entry {
			// Our own filter answered: authoritative check is local.
			latency += c.cfg.Cost.MemProbe
			if node.HasFile(path) {
				return finish(LookupResult{Home: entry, Found: true, Level: 2})
			}
		} else {
			ok2, cost := c.verify(f, home, path, s.stripe)
			latency += cost
			if ok2 {
				return finish(LookupResult{Home: home, Found: true, Level: 2})
			}
		}
		// False positive at L2: the paper's penalty is the group multicast.
	}

	// L3: multicast within the group; every member probes its segment
	// array in parallel, so the client waits for the multicast plus the
	// slowest member's response (including that member's queue when the
	// system is loaded).
	members := f.Members(entry)
	c.msgs.AddAt(s.stripe, simnet.MsgQueryMulticast, uint64(len(members)-1))
	latency += c.cfg.Cost.Multicast(len(members) - 1)
	// The entry spends CPU sending the multicast and folding the answers.
	fanoutCPU := time.Duration(len(members)-1) * c.cfg.Cost.MsgProc
	latency += fanoutCPU
	server += fanoutCPU
	// Book the round on the members' queues first, in one critical section,
	// so the lock is never held across a filter probe.
	var slowest time.Duration
	if queued {
		c.queueMu.Lock()
	}
	for _, id := range members {
		if id == entry {
			// Entry already probed its own array at L2.
			continue
		}
		resp := c.cfg.Cost.MsgProc + c.segmentProbeCost(f, id)
		if queued {
			resp = c.occupy(id, arrival, resp)
		}
		slowest = max(slowest, resp)
	}
	if queued {
		c.queueMu.Unlock()
	}
	set := s.set[:0]
	for _, id := range members {
		if id == entry {
			continue
		}
		rm := f.Node(id).QueryL2Digest(d, s.mhits)
		s.mhits = rm.Hits
		for _, h := range rm.Hits {
			// The L3 union is a handful of MDS IDs: a sorted slice
			// reusing its backing array beats the map this replaced.
			set = bloomarray.InsertSorted(set, h)
		}
	}
	s.set = set
	latency += slowest
	if len(set) == 1 {
		home := set[0]
		ok2, cost := c.verify(f, home, path, s.stripe)
		latency += cost
		if ok2 {
			return finish(LookupResult{Home: home, Found: true, Level: 3})
		}
	}

	// L4: global multicast; every MDS checks its local filter at memory
	// speed and positives verify on disk. The true home always answers.
	others := len(f.IDs()) - 1
	c.msgs.AddAt(s.stripe, simnet.MsgQueryMulticast, uint64(others))
	latency += c.cfg.Cost.Multicast(others)
	l4CPU := time.Duration(others) * c.cfg.Cost.MsgProc
	latency += l4CPU
	server += l4CPU
	var slowestL4 time.Duration
	if queued {
		c.queueMu.Lock()
	}
	for _, id := range f.IDs() {
		if id == entry {
			continue
		}
		resp := c.cfg.Cost.MsgProc + c.cfg.Cost.MemProbe
		if queued {
			resp = c.occupy(id, arrival, resp)
		}
		slowestL4 = max(slowestL4, resp)
	}
	if queued {
		c.queueMu.Unlock()
	}
	latency += slowestL4 + c.cfg.Cost.MemProbe
	// The home index answers only for a home whose store, looked up in this
	// fleet, holds the path. A reconfiguration published since may have
	// re-homed the file onto a server f does not know, so a miss is final
	// only against the fleet still current after it.
	home, ok := c.homes.Get(path, f.Holds)
	for cur := c.fleet.Load(); !ok && cur != f; cur = c.fleet.Load() {
		f = cur
		home, ok = c.homes.Get(path, f.Holds)
	}
	if ok {
		// The home's positive answer is verified against its store; the
		// paper charges a disk lookup for this final confirmation.
		latency += c.cfg.Cost.DiskRead
		return finish(LookupResult{Home: home, Found: true, Level: 4})
	}
	// Definitive miss: every local filter answered negative (or the rare
	// false positives were refuted by disk checks, charged here).
	latency += c.cfg.Cost.DiskRead
	return finish(LookupResult{Home: -1, Found: false, Level: 4})
}
