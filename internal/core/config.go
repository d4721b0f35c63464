// Package core implements the complete G-HBA scheme on the simulated
// substrate: N metadata servers organized into groups of at most M, the
// four-level query critical path of Section 2.3 (L1 LRU array → L2 segment
// array → L3 group multicast → L4 global multicast), the XOR-delta replica
// update protocol of Section 3.4, and the dynamic reconfiguration driver
// (MDS join/leave with light-weight migration, group splitting and merging).
//
// The cluster charges every operation against the simnet cost model and the
// per-MDS memory model, producing the latency, hit-rate and message-count
// measurements the experiment harness (internal/experiments) turns into the
// paper's figures.
package core

import (
	"fmt"

	"ghba/internal/mds"
	"ghba/internal/simnet"
	"ghba/internal/trace"
)

// Config parameterizes a simulated G-HBA cluster.
type Config struct {
	// NumMDS is the initial number of metadata servers (the paper's N).
	NumMDS int
	// MaxGroupSize is the maximum MDSs per group (the paper's M).
	MaxGroupSize int
	// Node sizes each MDS's filter structures.
	Node mds.Config
	// Cost is the latency model.
	Cost simnet.CostModel
	// MemoryBudgetBytes is each MDS's RAM budget for replica structures.
	// Zero means unlimited (everything memory resident).
	MemoryBudgetBytes uint64
	// VirtualReplicaBytes is the accounted size of one Bloom-filter
	// replica for memory-pressure purposes. The simulator runs namespaces
	// thousands of times smaller than the exabyte-scale systems the paper
	// targets, so pressure is computed at paper scale while membership
	// behaviour is measured on the real (small) filters. Zero means use
	// the actual filter sizes.
	VirtualReplicaBytes uint64
	// CacheHitRate dampens disk probes of spilled replicas (page-cache
	// hits on hot pages of cold filters), in [0, 1).
	CacheHitRate float64
	// UpdateThresholdBits is the XOR-delta staleness threshold: a home MDS
	// pushes a replica update once its local filter drifted this many bits
	// from the last shipped snapshot. DefaultConfig sets the threshold the
	// prototype's daemons run at (mds.DefaultUpdateThresholdBits); the
	// staleness figures override it.
	UpdateThresholdBits uint64
	// ShipBatch is the number of XOR-delta threshold crossings the
	// coalescing ship queue absorbs before draining. 0 or 1 ships at every
	// crossing — the paper's update protocol, and the default. Larger
	// values let a burst of creates dirty an origin many times while
	// shipping its filter once per drain; pending updates also drain on
	// Flush, so a quiescent point always sees fresh replicas.
	ShipBatch int
	// Seed drives home-MDS placement and entry-point selection.
	Seed int64
}

// DefaultConfig returns a laptop-scale configuration matching the
// experiments' defaults: N MDSs in groups of at most m.
func DefaultConfig(numMDS, maxGroupSize int) Config {
	return Config{
		NumMDS:              numMDS,
		MaxGroupSize:        maxGroupSize,
		Node:                mds.DefaultConfig(),
		Cost:                simnet.DefaultCostModel(),
		MemoryBudgetBytes:   0, // unlimited
		VirtualReplicaBytes: 0, // actual sizes
		CacheHitRate:        0.5,
		UpdateThresholdBits: mds.DefaultUpdateThresholdBits,
		Seed:                1,
	}
}

func (c Config) validate() error {
	if c.NumMDS < 1 {
		return fmt.Errorf("core: NumMDS must be ≥ 1, got %d", c.NumMDS)
	}
	if c.MaxGroupSize < 1 {
		return fmt.Errorf("core: MaxGroupSize must be ≥ 1, got %d", c.MaxGroupSize)
	}
	if err := c.Cost.Validate(); err != nil {
		return err
	}
	if c.CacheHitRate < 0 || c.CacheHitRate >= 1 {
		return fmt.Errorf("core: CacheHitRate %f outside [0,1)", c.CacheHitRate)
	}
	if c.ShipBatch < 0 {
		return fmt.Errorf("core: ShipBatch must be ≥ 0, got %d", c.ShipBatch)
	}
	return nil
}

// LookupResult reports the outcome of one lookup or mutation.
type LookupResult = trace.Result
