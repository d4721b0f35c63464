package proto

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"ghba/internal/trace"
)

// ApplyWith dispatches one trace record against the prototype: mutations
// create or delete files over RPC, reads perform lookups. It is ApplyBatch
// over a vector of one, so entry points and home placements are drawn from
// the caller's RNG with the draw pattern of core's — one mds.Fleet.Draw per
// create or lookup, none per delete — and a simulation and a prototype
// replaying the same trace with equally seeded RNGs place every file on the
// same home MDS, while a single-worker run is bit-for-bit the serial engine
// driven by that RNG. A path longer than the wire's 65,535-byte limit is
// refused before the draw.
func (c *Cluster) ApplyWith(ctx context.Context, rng *rand.Rand, rec trace.Record) (LookupResult, error) {
	res, err := c.ApplyBatch(ctx, rng, []trace.Record{rec})
	if err != nil {
		return LookupResult{}, err
	}
	return res[0], nil
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
