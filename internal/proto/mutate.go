package proto

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"ghba/internal/mds"
	"ghba/internal/trace"
)

// lockedRand draws from the cluster's internal RNG under rngMu: the serial
// API's mds.Intner, usable next to parallel workers (Populate, which holds
// c.mu, locks rngMu itself so the lock graph sees the order). The draw
// pattern mirrors core's exactly — one mds.Fleet.Draw per create or lookup,
// none per delete — so a simulation and a prototype replaying the same trace
// with equally seeded RNGs place every file on the same home MDS.
type lockedRand struct{ c *Cluster }

func (l lockedRand) Intn(n int) int {
	l.c.rngMu.Lock()
	v := l.c.rng.Intn(n)
	l.c.rngMu.Unlock()
	return v
}

// Apply dispatches one trace record against the prototype: mutations create
// or delete files over RPC, reads perform lookups. Entry points and home
// placements are drawn from the cluster's internal RNG. A path longer than
// the wire's 65,535-byte limit is refused before the draw.
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

// applyRecord is a window of one: the same single draw ApplyBatch makes per
// record, then a mutation round over the one record — walking it if it
// turned out to be an open — or the walk over a vector of one.
func (c *Cluster) applyRecord(ctx context.Context, r mds.Intner, rec trace.Record) (LookupResult, error) {
	if err := checkPaths(rec.Path); err != nil {
		return LookupResult{}, err
	}
	draw := 0
	if rec.Op != trace.OpDelete {
		draw = c.fleet.Load().Draw(r)
	}
	if isMutation(rec.Op) {
		out := make([]LookupResult, 1)
		opens, _, err := c.mutateRun(ctx, []trace.Record{rec}, []int{draw}, []int{0}, out)
		if err != nil || len(opens) == 0 {
			return out[0], err
		}
	}
	return c.lookupVia(ctx, rec.Path, draw)
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

// shipOrigin ships origin's filter as an XOR-delta update: to the one replica
// holder in every other group — every other daemon when groups are of one.
// Ships of the same origin serialize on a striped lock so a racing pair
// cannot install an older snapshot over a newer one while the origin's drift
// tracking already counts against the newer. Unknown origins (retired between
// enqueue and drain) are ignored.
func (c *Cluster) shipOrigin(ctx context.Context, origin int) error {
	stripe := &c.shipStripes[uint(origin)%uint(len(c.shipStripes))]
	stripe.Lock()
	defer stripe.Unlock()
	// The install targets are the published fleet's; the RPCs run without
	// any membership lock, like every other coordinator fan-out.
	f := c.fleet.Load()
	if f.Node(origin) == nil {
		return nil
	}
	installed, err := c.ship(ctx, origin, f.Layout().Holders(origin))
	c.replicaShips.Add(uint64(installed))
	return err
}

// ship is the coordinator's one sender of opShipFilter: it fetches origin's
// current filter snapshot (the daemon records it as last-shipped, resetting
// its XOR-delta drift) and installs it at every target, so no holder is ever
// left with an older snapshot than the one drift is measured against — a
// target that fails its install does not cost the others theirs. Returns how
// many targets were reached and the failures, joined.
func (c *Cluster) ship(ctx context.Context, origin int, targets []int) (int, error) {
	snap, err := c.call(ctx, origin, opShipFilter, nil)
	if err != nil {
		return 0, fmt.Errorf("proto: fetching filter of MDS %d: %w", origin, err)
	}
	payload := encodeOriginPayload(origin, snap)
	installed := 0
	var errs []error
	for _, target := range targets {
		if _, err := c.call(ctx, target, opInstallReplica, payload); err != nil {
			errs = append(errs, fmt.Errorf("proto: shipping filter of MDS %d to %d: %w", origin, target, err))
			continue
		}
		installed++
	}
	return installed, errors.Join(errs...)
}
