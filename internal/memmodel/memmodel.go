// Package memmodel models the per-MDS memory hierarchy that drives the
// paper's headline latency results (Figs 8–10): every MDS has a RAM budget;
// Bloom-filter replicas that fit stay memory resident, and the overflow
// spills to disk, turning each probe of a spilled replica into a disk access.
//
// HBA replicates every filter to every server, so at exabyte scale its
// replica array outgrows RAM and lookups hit disk; G-HBA keeps only
// ⌊(N−M′)/M′⌋ replicas per server and stays memory resident. This package
// is the mechanism by which the simulator exposes that difference.
package memmodel

import (
	"fmt"
	"time"
)

// Model tracks a RAM budget and how much of a replica set is resident.
// Resident accounting is fractional: with R replicas of equal size and only
// budget B available, a query that probes all R replicas pays for the
// spilled fraction with disk reads.
type Model struct {
	budgetBytes uint64
}

// New creates a model with the given RAM budget in bytes. A zero budget is
// allowed and forces everything to disk.
func New(budgetBytes uint64) *Model {
	return &Model{budgetBytes: budgetBytes}
}

// ResidentFraction returns the fraction of a working set of totalBytes that
// fits in RAM, in [0, 1].
func (m *Model) ResidentFraction(totalBytes uint64) float64 {
	if totalBytes == 0 {
		return 1
	}
	if m.budgetBytes >= totalBytes {
		return 1
	}
	return float64(m.budgetBytes) / float64(totalBytes)
}

// SpilledReplicas returns how many of total replicas are disk resident when
// the whole set occupies totalBytes. Replicas are assumed equally sized, and
// the hottest ones are kept in RAM (the OS page cache approximation).
func (m *Model) SpilledReplicas(total int, totalBytes uint64) int {
	if total <= 0 {
		return 0
	}
	resident := int(m.ResidentFraction(totalBytes) * float64(total))
	if resident > total {
		resident = total
	}
	return total - resident
}

// ArrayProbeCost returns the service time of probing an array of total
// replicas occupying totalBytes, given the unit costs of a memory probe and
// a disk read. Memory-resident replicas cost one memory probe each; spilled
// replicas cost a disk read each, damped by cacheHitRate — the probability
// that a nominally spilled page is found in the page cache (hot pages of
// cold filters survive there). cacheHitRate is clamped to [0, 1).
func (m *Model) ArrayProbeCost(total int, totalBytes uint64, memProbe, diskRead time.Duration, cacheHitRate float64) time.Duration {
	if total <= 0 {
		return 0
	}
	if cacheHitRate < 0 {
		cacheHitRate = 0
	}
	if cacheHitRate >= 1 {
		cacheHitRate = 0.999
	}
	spilled := m.SpilledReplicas(total, totalBytes)
	resident := total - spilled
	cost := time.Duration(resident) * memProbe
	effectiveDiskProbes := float64(spilled) * (1 - cacheHitRate)
	cost += time.Duration(effectiveDiskProbes * float64(diskRead))
	return cost
}

// String describes the budget in MB for experiment banners.
func (m *Model) String() string {
	return fmt.Sprintf("mem=%dMB", m.budgetBytes/(1<<20))
}
