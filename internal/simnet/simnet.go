// Package simnet models the network and storage costs of the simulated MDS
// cluster: a parameterized latency model (memory probe, disk access, LAN
// round trip, tree multicast) and message accounting used to reproduce the
// paper's overhead figures (Figs 11, 12, 15).
//
// The absolute constants are stand-ins for the authors' 2007 testbed; every
// experiment in this repository reports relative behaviour (who wins, by what
// factor, where curves cross), which is insensitive to the constants within
// wide ranges. All parameters are exported so studies can sweep them.
package simnet

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// CostModel holds the latency parameters of the simulated environment.
type CostModel struct {
	// MemProbe is the cost of probing one memory-resident Bloom filter.
	MemProbe time.Duration
	// DiskRead is the cost of one random disk access: fetching a
	// disk-resident filter page or verifying metadata existence on disk.
	DiskRead time.Duration
	// UnicastRTT is one request/response round trip between two MDSs.
	UnicastRTT time.Duration
	// ClientRTT is the client-to-MDS round trip added to every lookup.
	ClientRTT time.Duration
	// MsgProc is the CPU cost of receiving, parsing and answering one
	// protocol message at a server. Multicasts consume this on every
	// receiver, which is why over-large groups hurt throughput: each
	// escalated query burns (M−1)·MsgProc of group service capacity.
	MsgProc time.Duration
}

// DefaultCostModel returns constants representative of a 2007-era gigabit
// LAN cluster with commodity disks: ~1 µs per in-memory filter probe, 5 ms
// random disk access, 200 µs node-to-node RTT.
func DefaultCostModel() CostModel {
	return CostModel{
		MemProbe:   200 * time.Nanosecond,
		DiskRead:   5 * time.Millisecond,
		UnicastRTT: 200 * time.Microsecond,
		ClientRTT:  200 * time.Microsecond,
		MsgProc:    50 * time.Microsecond,
	}
}

// Validate reports whether all parameters are positive.
func (c CostModel) Validate() error {
	if c.MemProbe <= 0 || c.DiskRead <= 0 || c.UnicastRTT <= 0 || c.ClientRTT <= 0 || c.MsgProc <= 0 {
		return fmt.Errorf("simnet: non-positive cost parameter: %+v", c)
	}
	return nil
}

// Multicast returns the latency of delivering a message to fanout receivers
// and collecting their answers, modeled as a binary distribution tree:
// RTT · ⌈log2(fanout+1)⌉. A fanout of zero costs nothing.
func (c CostModel) Multicast(fanout int) time.Duration {
	if fanout <= 0 {
		return 0
	}
	depth := math.Ceil(math.Log2(float64(fanout) + 1))
	return time.Duration(float64(c.UnicastRTT) * depth)
}

// MsgType labels counted message categories.
type MsgType int

// Message categories tracked by the simulator. They map onto the overheads
// the paper charts: replica migrations (Fig 11), update traffic (Fig 12),
// and reconfiguration messages (Fig 15).
const (
	MsgQueryUnicast MsgType = iota + 1
	MsgQueryMulticast
	MsgReplicaMigration
	MsgReplicaUpdate
	MsgMembership
	msgTypeCount // sentinel
)

// Counter tallies messages by type. It is safe for concurrent use — every
// simulator lookup adds to the cluster's one instance — and lock-free: each
// type is an atomic cell in each of a few stripes, every stripe on cache
// lines of its own, so writers that add to different stripes (AddAt) never
// write the same line. Get and Total sum the stripes cell by cell
// and are exact once the writers have stopped.
type Counter struct {
	stripes [counterStripes]counterStripe
}

// counterStripes is the number of stripes; AddAt reduces its stripe modulo
// it.
const counterStripes = 8

// counterStripe is one stripe's cells, padded to two cache lines so that no
// line holds cells of two stripes however the array is aligned.
type counterStripe struct {
	counts [msgTypeCount]atomic.Uint64
	_      [128 - 8*msgTypeCount]byte
}

// NewCounter returns an empty counter.
func NewCounter() *Counter { return &Counter{} }

// Add records n messages of the given type in stripe 0.
func (c *Counter) Add(t MsgType, n uint64) { c.AddAt(0, t, n) }

// AddAt records n messages of the given type in the given stripe (any
// non-negative number). Concurrent writers that keep to their own stripe
// share no cache line.
func (c *Counter) AddAt(stripe int, t MsgType, n uint64) {
	if t <= 0 || t >= msgTypeCount {
		return
	}
	c.stripes[stripe%counterStripes].counts[t].Add(n)
}

// Get returns the count for one type.
func (c *Counter) Get(t MsgType) uint64 {
	if t <= 0 || t >= msgTypeCount {
		return 0
	}
	var sum uint64
	for i := range c.stripes {
		sum += c.stripes[i].counts[t].Load()
	}
	return sum
}

// Total returns the count across all types.
func (c *Counter) Total() uint64 {
	var sum uint64
	for t := MsgType(1); t < msgTypeCount; t++ {
		sum += c.Get(t)
	}
	return sum
}
