package core

import (
	"math/rand"
	"time"
)

// LookupAt replays a lookup arriving at the given offset at a chosen entry
// through the open-loop queuing model ApplyWith runs a lookup record
// through: the request waits for the entry MDS to drain its queue,
// multicast probes occupy the members they land on, and the returned
// latency includes all queueing delays. An entry that is not a member is
// re-drawn from rng, as in LookupWith.
func (c *Cluster) LookupAt(rng *rand.Rand, path string, entry int, arrival time.Duration) LookupResult {
	f := c.fleet.Load()
	if f.Node(entry) == nil {
		entry = f.Draw(rng)
	}
	return c.lookupFleet(f, path, entry, arrival, true)
}

// ResetQueues clears the queuing state between runs.
func (c *Cluster) ResetQueues() {
	c.queueMu.Lock()
	defer c.queueMu.Unlock()
	clear(c.queue)
}
