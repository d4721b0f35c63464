package core

import "ghba/internal/mds"

// MemoryFootprint describes one MDS's filter memory, the raw data behind
// Table 5's relative overhead comparison.
type MemoryFootprint struct {
	// LocalFilterBytes is the filter over locally homed files.
	LocalFilterBytes uint64
	// ReplicaBytes is the segment array (held replicas).
	ReplicaBytes uint64
	// LRUBytes is the L1 array.
	LRUBytes uint64
	// IDBFABytes prices the paper's replica-location array (IDBFA): one
	// idbfaBytesPerMember ID filter per groupmate. The simulator locates
	// replicas by its group.Layout, so no such array exists; the figure is
	// arithmetic, kept for Table 5's comparison.
	IDBFABytes uint64
}

// idbfaBytesPerMember is one IDBFA member filter: 512 one-byte counters,
// which keeps the false-positive rate negligible at θ ≈ N/M origin IDs per
// filter for the N ≤ 200 the paper evaluates.
const idbfaBytesPerMember = 512

// Total returns the combined footprint.
func (f MemoryFootprint) Total() uint64 {
	return f.LocalFilterBytes + f.ReplicaBytes + f.LRUBytes + f.IDBFABytes
}

// Footprint returns the memory footprint of one MDS, or a zero value for an
// unknown ID.
func (c *Cluster) Footprint(id int) MemoryFootprint {
	return c.footprint(c.fleet.Load(), id)
}

func (c *Cluster) footprint(f *mds.Fleet, id int) MemoryFootprint {
	node := f.Node(id)
	if node == nil {
		return MemoryFootprint{}
	}
	return MemoryFootprint{
		LocalFilterBytes: node.LocalFilter().SizeBytes(),
		ReplicaBytes:     node.Replicas().SizeBytes(),
		// Each MDS stores a replica of every home's LRU filter.
		LRUBytes:   c.lru.SizeBytes(),
		IDBFABytes: uint64(len(f.Members(id))) * idbfaBytesPerMember,
	}
}

// MeanFootprint averages the footprint across all MDSs of one membership
// snapshot.
func (c *Cluster) MeanFootprint() MemoryFootprint {
	f := c.fleet.Load()
	var sum MemoryFootprint
	ids := f.IDs()
	if len(ids) == 0 {
		return sum
	}
	for _, id := range ids {
		fp := c.footprint(f, id)
		sum.LocalFilterBytes += fp.LocalFilterBytes
		sum.ReplicaBytes += fp.ReplicaBytes
		sum.LRUBytes += fp.LRUBytes
		sum.IDBFABytes += fp.IDBFABytes
	}
	n := uint64(len(ids))
	return MemoryFootprint{
		LocalFilterBytes: sum.LocalFilterBytes / n,
		ReplicaBytes:     sum.ReplicaBytes / n,
		LRUBytes:         sum.LRUBytes / n,
		IDBFABytes:       sum.IDBFABytes / n,
	}
}
