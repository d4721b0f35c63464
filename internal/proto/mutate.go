package proto

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"ghba/internal/trace"
)

// intner is the single-draw interface the mutation paths need from a
// randomness source; *rand.Rand satisfies it, and the cluster's own RNG is
// adapted through lockedRand so the serial API stays usable next to
// parallel workers. The draw pattern mirrors core's exactly — one draw per
// create or lookup, none per delete — so a simulation and a prototype
// replaying the same trace with equally seeded RNGs place every file on the
// same home MDS.
type intner interface {
	Intn(n int) int
}

type lockedRand struct{ c *Cluster }

func (l lockedRand) Intn(n int) int {
	l.c.rngMu.Lock()
	v := l.c.rng.Intn(n)
	l.c.rngMu.Unlock()
	return v
}

// createAt sends the create RPC to the chosen home, reporting whether the
// home's filter crossed the XOR-delta ship threshold. Callers route a
// crossing into the ship queue once the homes-map claim is settled: a ship
// failure must never be mistaken for a failed create.
func (c *Cluster) createAt(ctx context.Context, home int, path string, ctr *atomic.Int64) (bool, error) {
	resp, err := c.call(ctx, home, opCreateFile, []byte(path), ctr)
	if err != nil {
		return false, err
	}
	return decodeCreateResp(resp)
}

// deleteInner removes path, returning its pre-delete home (-1 when absent)
// and whether it existed. The homes-map removal is the linearization point,
// mirroring core's shard-locked delete.
func (c *Cluster) deleteInner(ctx context.Context, path string, ctr *atomic.Int64) (int, bool, error) {
	c.homesMu.Lock()
	home, ok := c.homes[path]
	if ok {
		delete(c.homes, path)
	}
	c.homesMu.Unlock()
	if !ok {
		return -1, false, nil
	}
	resp, err := c.call(ctx, home, opDeleteFile, []byte(path), ctr)
	if err != nil {
		// The daemon may still hold the file; restore the claim so ground
		// truth stays consistent with daemon state (a racing create of the
		// same path has priority and keeps its new home).
		c.homesMu.Lock()
		if _, reclaimed := c.homes[path]; !reclaimed {
			c.homes[path] = home
		}
		c.homesMu.Unlock()
		return home, true, err
	}
	_, rebuilt, err := decodeDeleteResp(resp)
	if err != nil {
		return home, true, err
	}
	if rebuilt {
		if err := c.shipBatch(ctx, c.ships.Note(home)); err != nil {
			return home, true, err
		}
	}
	return home, true, nil
}

// Apply dispatches one trace record against the prototype: mutations create
// or delete files over RPC, reads perform lookups. Entry points and home
// placements are drawn from the cluster's internal RNG.
func (c *Cluster) Apply(ctx context.Context, rec trace.Record) (LookupResult, error) {
	return c.applyRecord(ctx, lockedRand{c}, rec)
}

// ApplyWith is Apply with a caller-supplied RNG: parallel replay workers
// give each goroutine its own seeded RNG so record dispatch shares no
// mutable randomness, and a single-worker run is bit-for-bit the serial
// engine driven by that RNG.
func (c *Cluster) ApplyWith(ctx context.Context, rng *rand.Rand, rec trace.Record) (LookupResult, error) {
	return c.applyRecord(ctx, rng, rec)
}

func (c *Cluster) applyRecord(ctx context.Context, r intner, rec trace.Record) (LookupResult, error) {
	switch rec.Op {
	case trace.OpCreate:
		// One draw either way: it becomes the home of a fresh path, or the
		// entry point when creating an existing path degenerates to an
		// open. The homes-map claim is the atomic linearization point, so
		// two workers racing on the same path cannot both home it.
		ids := c.snapshotIDs()
		id := ids[r.Intn(len(ids))]
		c.homesMu.Lock()
		if _, exists := c.homes[rec.Path]; exists {
			c.homesMu.Unlock()
			return c.LookupVia(ctx, rec.Path, id)
		}
		c.homes[rec.Path] = id
		c.homesMu.Unlock()
		start := time.Now()
		crossed, err := c.createAt(ctx, id, rec.Path, nil)
		if err != nil {
			// The daemon never homed the file; withdraw the claim so
			// ground truth does not drift from daemon state.
			c.homesMu.Lock()
			delete(c.homes, rec.Path)
			c.homesMu.Unlock()
			return LookupResult{}, fmt.Errorf("proto: create %q at MDS %d: %w", rec.Path, id, err)
		}
		if crossed {
			// The create itself succeeded; a ship failure (say, a replica
			// holder dying mid-failover) leaves a stale replica that
			// lookups tolerate — it must not withdraw the claim of a homed
			// file.
			if err := c.shipBatch(ctx, c.ships.Note(id)); err != nil {
				return LookupResult{}, fmt.Errorf("proto: create %q at MDS %d: %w", rec.Path, id, err)
			}
		}
		return LookupResult{Home: id, Found: true, Level: 0, Latency: time.Since(start)}, nil
	case trace.OpDelete:
		start := time.Now()
		home, existed, err := c.deleteInner(ctx, rec.Path, nil)
		if err != nil {
			return LookupResult{}, fmt.Errorf("proto: delete %q: %w", rec.Path, err)
		}
		return LookupResult{Home: home, Found: existed, Level: 0, Latency: time.Since(start)}, nil
	default:
		ids := c.snapshotIDs()
		return c.LookupVia(ctx, rec.Path, ids[r.Intn(len(ids))])
	}
}

// Flush drains the coalescing ship queue: every daemon whose filter crossed
// the update threshold since the last drain ships its replicas now. A
// no-op with the default ShipBatch of 1.
func (c *Cluster) Flush(ctx context.Context) error {
	return c.shipBatch(ctx, c.ships.Drain())
}

// PendingShips returns how many origins have crossed the ship threshold but
// not yet drained.
func (c *Cluster) PendingShips() int { return c.ships.PendingCount() }

// shipBatch ships every origin in the batch (nil is a no-op), in the
// ascending order the queue hands back — the same order core drains in.
func (c *Cluster) shipBatch(ctx context.Context, origins []int) error {
	for _, origin := range origins {
		if err := c.shipOrigin(ctx, origin); err != nil {
			return err
		}
	}
	return nil
}

// shipOrigin fetches origin's current filter snapshot over RPC (the daemon
// records it as last-shipped, resetting its XOR-delta drift) and installs
// it at the one replica holder in every other group — every other daemon
// when groups are of one. Ships of the same origin serialize on a striped lock
// so a racing pair cannot install an older snapshot over a newer one while
// the origin's drift tracking already counts against the newer. Unknown
// origins (retired between enqueue and drain) are ignored.
func (c *Cluster) shipOrigin(ctx context.Context, origin int) error {
	stripe := &c.shipStripes[uint(origin)%uint(len(c.shipStripes))]
	stripe.Lock()
	defer stripe.Unlock()
	// Snapshot the install targets under the read lock; the RPCs run
	// without it, like every other coordinator fan-out.
	c.mu.RLock()
	if _, ok := c.servers[origin]; !ok {
		c.mu.RUnlock()
		return nil
	}
	var targets []int
	ownGroup := c.groupIdx[origin]
	for _, gi := range sortedKeys(c.groups) {
		if holder, ok := c.holders[gi][origin]; ok && gi != ownGroup {
			targets = append(targets, holder)
		}
	}
	c.mu.RUnlock()
	snap, err := c.call(ctx, origin, opShipFilter, nil, nil)
	if err != nil {
		return fmt.Errorf("proto: fetching filter of MDS %d: %w", origin, err)
	}
	payload := encodeOriginPayload(origin, snap)
	for _, target := range targets {
		if _, err := c.call(ctx, target, opInstallReplica, payload, nil); err != nil {
			return fmt.Errorf("proto: shipping filter of MDS %d to %d: %w", origin, target, err)
		}
		c.replicaShips.Add(1)
	}
	return nil
}
