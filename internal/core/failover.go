package core

import (
	"fmt"

	"ghba/internal/group"
	"ghba/internal/simnet"
)

// FailoverReport describes the recovery work after an MDS crash.
type FailoverReport struct {
	// ReplicasRefetched counts Bloom-filter replicas the group re-fetched
	// from their origins because the crashed member's copies were lost.
	ReplicasRefetched int
	// FilesLost is how many files were homed at the crashed MDS and are
	// unavailable until recreated (the paper's "degraded coverage").
	FilesLost int
	// Messages counts all recovery protocol messages.
	Messages int
}

// FailMDS simulates the crash-failure path of Section 4.5: heart-beats
// detect the failure, the dead server's Bloom filters are removed everywhere
// (reducing false positives), its group re-fetches the replicas it was
// holding — each survivor receiving what the origin last shipped — and groups
// merge if the survivors fit within M. Unlike RemoveMDS, nothing is migrated
// *from* the dead node — its replica holdings and the metadata it homed are
// simply gone, and lookups for its files return not-found until the files
// are recreated.
func (c *Cluster) FailMDS(id int) (FailoverReport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := c.fleet.Load()
	if f.Node(id) == nil {
		return FailoverReport{}, fmt.Errorf("core: unknown MDS %d", id)
	}
	if len(f.IDs()) == 1 {
		return FailoverReport{}, fmt.Errorf("core: refusing to fail the last MDS")
	}
	layout, plan := f.Layout().Fail(id)
	next := f.Successor(layout, nil, id)
	c.retireLocked(id)
	c.applyPlanLocked(next, plan)
	rep := FailoverReport{
		ReplicasRefetched: plan.Count(group.Fetch),
		// Files homed at the dead server are unavailable: degraded
		// coverage, not wrong answers. Ground truth forgets them so
		// lookups miss.
		FilesLost: c.homes.Scrub(id),
		Messages:  plan.Report().Messages,
	}
	c.publishLocked(next)
	c.msgs.Add(simnet.MsgMembership, uint64(rep.Messages))
	return rep, nil
}
