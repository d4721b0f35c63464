// Package memmodel models the per-MDS memory hierarchy that drives the
// paper's headline latency results (Figs 8–10 in simulation, Fig 14 on the
// prototype): every MDS has a RAM budget; Bloom-filter replicas that fit
// stay memory resident, and the overflow spills to disk, turning each probe
// of a spilled replica into a disk access.
//
// HBA replicates every filter to every server, so at exabyte scale its
// replica array outgrows RAM and lookups hit disk; G-HBA keeps only
// ⌊(N−M′)/M′⌋ replicas per server and stays memory resident. This package
// is the one place a byte budget and a filter array (mds.Node.Segment)
// become a spilled share, which the simulator prices in simulated disk
// reads and the prototype's daemons in wall-clock sleeps.
package memmodel

import "time"

// Model tracks a RAM budget and how much of a replica set is resident.
// Resident accounting is fractional: with R replicas of equal size and only
// budget B available, a query that probes all R replicas pays for the
// spilled fraction with disk reads.
type Model struct {
	budgetBytes uint64
}

// New creates a model with the given RAM budget in bytes. A zero budget is
// allowed and forces everything to disk; a nil *Model is an unlimited
// budget, under which every array is resident.
func New(budgetBytes uint64) *Model {
	return &Model{budgetBytes: budgetBytes}
}

// ResidentFraction returns the fraction of a working set of totalBytes that
// fits in RAM, in [0, 1].
func (m *Model) ResidentFraction(totalBytes uint64) float64 {
	if m == nil || m.budgetBytes >= totalBytes {
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
	// The fraction is at most 1, so the resident count never passes total.
	return total - int(m.ResidentFraction(totalBytes)*float64(total))
}

// SpilledShare returns SpilledReplicas over total, in [0, 1]: the chance
// that one probed replica of the array is a spilled one.
func (m *Model) SpilledShare(total int, totalBytes uint64) float64 {
	if total <= 0 {
		return 0
	}
	return float64(m.SpilledReplicas(total, totalBytes)) / float64(total)
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
	if cacheHitRate >= 1 {
		cacheHitRate = 0.999
	}
	spilled := m.SpilledReplicas(total, totalBytes)
	return time.Duration(total-spilled)*memProbe +
		time.Duration(float64(spilled)*(1-max(cacheHitRate, 0))*float64(diskRead))
}
