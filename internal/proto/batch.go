package proto

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"ghba/internal/bloomarray"
	"ghba/internal/trace"
)

// This file is the coordinator's one way onto the wire for namespace
// operations: every lookup, create and delete travels as a vector — a whole
// ApplyBatch window, or a vector of one for Lookup/Apply — so syscalls, frame
// headers, digest computation and daemon lock acquisitions amortize across
// whatever the caller hands over. The draw pattern is fixed (one RNG draw per
// create or lookup in op order, none per delete) and the homes-map claim is
// the linearization point, so a fixed-seed trace replays onto the same homes
// at every vector length.

// ApplyBatch dispatches a vector of trace records through the batch RPCs.
// RNG draws happen in op order (one per create or open, none per delete).
// Execution is wave-scheduled: each op's wave is its position in its own
// path's kind-alternation chain — the first run of same-kind ops on a path
// is wave 0, the next kind on that path wave 1, and so on — and waves
// execute in order, each as up to three batch vectors (creates, then
// deletes, then lookups). Within a wave the vectors are path-disjoint by
// construction, so their relative order cannot change any per-path outcome,
// while cross-kind dependencies on one path (a create before a lookup or
// delete of that path) land exactly as a serial Apply loop would place
// them. A mixed window thus collapses into a handful of maximal vectors
// instead of one run per kind change. Per-op homes and existence results
// are identical to a serial Apply loop's; lookup levels can differ when a
// reordered unrelated mutation shifts a filter's false-positive pattern.
// Results align with recs.
func (c *Cluster) ApplyBatch(ctx context.Context, rng *rand.Rand, recs []trace.Record) ([]LookupResult, error) {
	if len(recs) == 0 {
		return nil, nil
	}
	results := make([]LookupResult, len(recs))
	// Pass 1: the draws, in op order, before any RPC, so a fixed seed homes
	// every file identically however the window is cut into vectors.
	ids := c.snapshotIDs()
	paths := make([]string, len(recs))
	draws := make([]int, len(recs))
	for i, rec := range recs {
		paths[i] = rec.Path
		if rec.Op != trace.OpDelete {
			draws[i] = ids[rng.Intn(len(ids))]
		}
	}
	// Pass 2: assign waves along each path's kind-alternation chain.
	type pathState struct {
		kind trace.OpType
		wave int
	}
	type wave struct {
		creates, deletes, lookups []int
	}
	last := make(map[string]pathState)
	var waves []wave
	for i, rec := range recs {
		kind := runKind(rec.Op)
		w := 0
		if st, ok := last[rec.Path]; ok {
			w = st.wave
			if st.kind != kind {
				w++
			}
		}
		last[rec.Path] = pathState{kind: kind, wave: w}
		for len(waves) <= w {
			waves = append(waves, wave{})
		}
		switch kind {
		case trace.OpCreate:
			waves[w].creates = append(waves[w].creates, i)
		case trace.OpDelete:
			waves[w].deletes = append(waves[w].deletes, i)
		default:
			waves[w].lookups = append(waves[w].lookups, i)
		}
	}
	// Pass 3: execute the waves in order.
	for _, wv := range waves {
		if len(wv.creates) > 0 {
			if err := c.createRun(ctx, paths, draws, wv.creates, results); err != nil {
				return nil, err
			}
		}
		if len(wv.deletes) > 0 {
			if err := c.deleteRun(ctx, paths, wv.deletes, results); err != nil {
				return nil, err
			}
		}
		if len(wv.lookups) > 0 {
			if err := c.lookupRun(ctx, paths, draws, wv.lookups, results); err != nil {
				return nil, err
			}
		}
	}
	return results, nil
}

// runKind collapses operation types into the three execution kinds a batch
// splits into; everything that is not a mutation replays as a lookup.
func runKind(op trace.OpType) trace.OpType {
	switch op {
	case trace.OpCreate, trace.OpDelete:
		return op
	default:
		return trace.OpOpen
	}
}

// leg is one daemon's share of a fan-out round: slots index the round's path
// slice, naming the paths the daemon is asked about and where each answer
// goes.
type leg struct {
	daemon int
	slots  []int
}

// addLeg files slot under daemon's leg, opening the leg on first use. Legs
// stay in first-use order, so a round's RPCs, answers and joined errors are
// seed-stable. The scan is linear in the daemons a round touches — at most
// the cluster size, against a network round trip per leg.
func addLeg(legs []leg, daemon, slot int) []leg {
	for k := range legs {
		if legs[k].daemon == daemon {
			legs[k].slots = append(legs[k].slots, slot)
			return legs
		}
	}
	return append(legs, leg{daemon: daemon, slots: []int{slot}})
}

// payload encodes the leg's request: the path vector its slots select.
func (l leg) payload(paths []string) []byte {
	return encodePaths(pick(paths, l.slots))
}

// pick gathers paths[i] for each i in idxs, in order.
func pick(paths []string, idxs []int) []string {
	sub := make([]string, len(idxs))
	for k, i := range idxs {
		sub[k] = paths[i]
	}
	return sub
}

// fanOut runs run(0) … run(n-1) concurrently and returns once all have: the
// last on the calling goroutine, the others on goroutines of their own. A
// round with a single leg — every round of a one-path walk that has one
// candidate — therefore starts no goroutine and parks nobody.
func fanOut(n int, run func(k int)) {
	if n > 1 {
		var wg sync.WaitGroup
		defer wg.Wait()
		for k := 0; k < n-1; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				run(k)
			}(k)
		}
	}
	if n > 0 {
		run(n - 1)
	}
}

// createRun executes one vector of creates (idxs index into paths, in op
// order): homes-map claims resolve in op order (the linearization point, so
// two workers racing on one path cannot both home it), fresh creates group
// into one opCreateBatch per home daemon, and creates of existing paths
// degenerate to opens entering at their draw — run as a lookup vector after
// the creates land, so an open of a path created earlier in the same vector
// finds it.
func (c *Cluster) createRun(ctx context.Context, paths []string, draws []int, idxs []int, out []LookupResult) error {
	var legs []leg
	var opens []int
	c.homesMu.Lock()
	for _, i := range idxs {
		if _, exists := c.homes[paths[i]]; exists {
			opens = append(opens, i)
			continue
		}
		c.homes[paths[i]] = draws[i]
		legs = addLeg(legs, draws[i], i)
	}
	c.homesMu.Unlock()

	start := time.Now()
	crossed := make([]bool, len(legs))
	errs := make([]error, len(legs))
	fanOut(len(legs), func(k int) {
		l := legs[k]
		resp, err := c.call(ctx, l.daemon, opCreateBatch, l.payload(paths))
		if err == nil {
			crossed[k], err = decodeCreateResp(resp)
		}
		if err != nil {
			// The daemon never homed these files; withdraw the claims so
			// ground truth does not drift from daemon state.
			c.homesMu.Lock()
			for _, i := range l.slots {
				delete(c.homes, paths[i])
			}
			c.homesMu.Unlock()
			errs[k] = fmt.Errorf("proto: create batch at MDS %d: %w", l.daemon, err)
		}
	})
	if err := errors.Join(errs...); err != nil {
		return err
	}
	// The creates themselves succeeded; a ship failure (say, a replica holder
	// dying mid-failover) leaves a stale replica that lookups tolerate, so it
	// is reported but never withdraws the claim of a homed file.
	if err := c.settle(ctx, paths, legs, crossed, time.Since(start), out); err != nil {
		return err
	}
	if len(opens) > 0 {
		return c.lookupRun(ctx, paths, draws, opens, out)
	}
	return nil
}

// deleteRun executes one vector of deletes: claims removed in op order (the
// linearization point), one opDeleteBatch per home daemon, rebuilds routed
// into the ship queue. A delete of an absent path — including a second
// delete of one path within the vector, whose claim the first already
// removed — reports not-found without touching the wire.
func (c *Cluster) deleteRun(ctx context.Context, paths []string, idxs []int, out []LookupResult) error {
	var legs []leg
	c.homesMu.Lock()
	for _, i := range idxs {
		home, ok := c.homes[paths[i]]
		if !ok {
			out[i] = LookupResult{Path: paths[i], Home: -1}
			continue
		}
		delete(c.homes, paths[i])
		legs = addLeg(legs, home, i)
	}
	c.homesMu.Unlock()

	start := time.Now()
	rebuilt := make([]bool, len(legs))
	errs := make([]error, len(legs))
	fanOut(len(legs), func(k int) {
		l := legs[k]
		resp, err := c.call(ctx, l.daemon, opDeleteBatch, l.payload(paths))
		if err != nil {
			// The daemon may still hold the files; restore the claims so
			// ground truth stays consistent (a racing create of the same
			// path has priority and keeps its new home).
			c.homesMu.Lock()
			for _, i := range l.slots {
				if _, reclaimed := c.homes[paths[i]]; !reclaimed {
					c.homes[paths[i]] = l.daemon
				}
			}
			c.homesMu.Unlock()
		} else {
			rebuilt[k], err = decodeDeleteBatchResp(resp, len(l.slots))
		}
		if err != nil {
			errs[k] = fmt.Errorf("proto: delete batch at MDS %d: %w", l.daemon, err)
		}
	})
	if err := errors.Join(errs...); err != nil {
		return err
	}
	return c.settle(ctx, paths, legs, rebuilt, time.Since(start), out)
}

// settle closes a mutation round whose legs all landed: every record reports
// its leg's daemon as home and an equal share of the round's wall time, and
// the daemons whose batch flagged a ship (a threshold crossing, a filter
// rebuild) feed the coalescing ship queue in ascending order — the order a
// serial loop's drains preserve.
func (c *Cluster) settle(ctx context.Context, paths []string, legs []leg, shipDue []bool, elapsed time.Duration, out []LookupResult) error {
	landed := 0
	for _, l := range legs {
		landed += len(l.slots)
	}
	perLat := amortized(elapsed, landed)
	var origins []int
	for k, l := range legs {
		for _, i := range l.slots {
			out[i] = LookupResult{Path: paths[i], Home: l.daemon, Found: true, Latency: perLat}
		}
		if shipDue[k] {
			origins = append(origins, l.daemon)
		}
	}
	sort.Ints(origins)
	for _, origin := range origins {
		if err := c.shipBatch(ctx, c.ships.Note(origin)); err != nil {
			return err
		}
	}
	return nil
}

// lookupRun resolves one vector of reads with the pre-drawn entries.
func (c *Cluster) lookupRun(ctx context.Context, paths []string, draws []int, idxs []int, out []LookupResult) error {
	entries := make([]int, len(idxs))
	for k, i := range idxs {
		entries[k] = draws[i]
	}
	res, err := c.lookupVector(ctx, pick(paths, idxs), entries)
	if err != nil {
		return err
	}
	for k, i := range idxs {
		out[i] = res[k]
	}
	return nil
}

// lookupVector is the prototype's one walk of the paper's hierarchy: it
// resolves paths[i] entering at entries[i], every level a fan-out round —
// one opLookupBatch per distinct entry daemon (L1 + L2 hits),
// opVerifyBatch per candidate daemon, one opQueryMemberBatch per groupmate
// (L3), and one opHasLocalBatch scatter-gather across all daemons (L4).
// One membership snapshot serves the whole walk, so every level filters
// hits against, and fans out over, the same topology.
func (c *Cluster) lookupVector(ctx context.Context, paths []string, entries []int) ([]LookupResult, error) {
	if len(paths) == 0 {
		return nil, nil
	}
	start := time.Now()
	snap := c.index.Load()
	// A result's Level stays 0 until a level of the hierarchy answers for it.
	results := make([]LookupResult, len(paths))

	// confirm store-verifies one round's candidates and resolves each path
	// at its first confirmed probe. Probes are filed in path order, L1
	// before L2, so first-wins is the level order.
	confirm := func(probes []probe) error {
		ok, err := c.verifyProbes(ctx, paths, probes)
		if err != nil {
			return err
		}
		for p, pr := range probes {
			if ok[p] && results[pr.idx].Level == 0 {
				results[pr.idx] = LookupResult{Home: pr.daemon, Found: true, Level: pr.level}
			}
		}
		return nil
	}

	// Entry leg: L1 + L2 hits for every path, one RPC per distinct entry.
	var legs []leg
	for i, e := range entries {
		legs = addLeg(legs, e, i)
	}
	l1 := make([][]int, len(paths))
	l2 := make([][]int, len(paths))
	err := c.scatter(ctx, opLookupBatch, "lookup batch", paths, legs, func(l leg, resp []byte) error {
		lists, err := decodeHitsVec(resp, 2*len(l.slots))
		if err != nil {
			return err
		}
		for k, i := range l.slots {
			l1[i], l2[i] = lists[2*k], lists[2*k+1]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// L1 + L2 verification in one speculative round: every unique L1 hit
	// and every distinct unique L2 hit verify together, and resolution
	// applies the level order, so homes and levels match a
	// one-level-at-a-time walk without paying two round trips. A path whose
	// L2 candidate equals its L1 candidate skips the duplicate: the verify
	// answer is an authoritative store check, so asking the same daemon
	// twice cannot change it.
	var probes []probe
	for i := range paths {
		c1, ok1 := candidate(snap.ids, l1[i])
		if ok1 {
			probes = append(probes, probe{idx: i, daemon: c1, level: 1})
		}
		if c2, ok := candidate(snap.ids, l2[i]); ok && !(ok1 && c2 == c1) {
			probes = append(probes, probe{idx: i, daemon: c2, level: 2})
		}
	}
	if err := confirm(probes); err != nil {
		return nil, err
	}

	// L3: one scatter-gather round over the unresolved paths' group members,
	// grouped by target daemon — daemon m answers for every pending path
	// whose entry shares m's group, so the round costs one RPC per distinct
	// groupmate instead of one per entry × groupmate (and none at all when
	// groups are of one). The union covers the groupmates' arrays only —
	// each path's own entry already had its chance above, and folding its L2
	// hits back in would resolve at L3 what the simulator sends to L4.
	legs = nil
	for i := range paths {
		if results[i].Level != 0 {
			continue
		}
		for _, m := range snap.members[entries[i]] {
			if m != entries[i] {
				legs = addLeg(legs, m, i)
			}
		}
	}
	if len(legs) > 0 {
		unions := make([][]int, len(paths))
		err = c.scatter(ctx, opQueryMemberBatch, "member batch", paths, legs, func(l leg, resp []byte) error {
			lists, err := decodeHitsVec(resp, len(l.slots))
			if err != nil {
				return err
			}
			for k, i := range l.slots {
				for _, h := range lists[k] {
					unions[i] = bloomarray.InsertSorted(unions[i], h)
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		probes = probes[:0]
		for i := range paths {
			if results[i].Level != 0 {
				continue
			}
			if h, ok := candidate(snap.ids, unions[i]); ok {
				probes = append(probes, probe{idx: i, daemon: h, level: 3})
			}
		}
		if err := confirm(probes); err != nil {
			return nil, err
		}
	}

	// L4: one global scatter-gather round for everything still unresolved.
	var rem []int
	for i := range paths {
		if results[i].Level == 0 {
			rem = append(rem, i)
		}
	}
	if len(rem) > 0 {
		homes, err := c.hasLocalVector(ctx, snap.ids, pick(paths, rem))
		if err != nil {
			return nil, err
		}
		for k, i := range rem {
			results[i] = LookupResult{Home: homes[k], Found: homes[k] >= 0, Level: 4}
		}
	}

	// Finalize: tally, observe, and amortize the vector's cost per path.
	// The whole vector's confirmed lookups feed the L1 learning pipeline as
	// one bulk append, so a large vector multicasts at most one observation
	// batch instead of one per ObserveBatch lookups.
	perLat := amortized(time.Since(start), len(paths))
	obs := make([]observation, 0, len(paths))
	for i := range results {
		results[i].Path, results[i].Latency = paths[i], perLat
		c.tally.Record(results[i].Level)
		if results[i].Found {
			obs = append(obs, observation{home: results[i].Home, path: paths[i]})
		}
	}
	return results, c.observeMany(ctx, snap.ids, obs)
}

// probe is one store verification: path idx, nominated for daemon by the
// given level of the hierarchy.
type probe struct {
	idx, daemon, level int
}

// verifyProbes issues one opVerifyBatch per distinct candidate daemon for
// the probe set — a path may carry probes at several daemons in the same
// round — and returns the authoritative answer per probe.
func (c *Cluster) verifyProbes(ctx context.Context, paths []string, probes []probe) ([]bool, error) {
	var legs []leg
	asked := make([]string, len(probes)) // the round's path slice: one slot per probe
	for p, pr := range probes {
		legs = addLeg(legs, pr.daemon, p)
		asked[p] = paths[pr.idx]
	}
	ok := make([]bool, len(probes))
	err := c.scatter(ctx, opVerifyBatch, "verify batch", asked, legs, func(l leg, resp []byte) error {
		answers, err := decodeBools(resp, len(l.slots))
		if err != nil {
			return err
		}
		for k, p := range l.slots {
			ok[p] = answers[k]
		}
		return nil
	})
	return ok, err
}

// scatter is the read path's one fan-out: every leg's daemon receives, in
// parallel, one op RPC carrying the paths its slots select, and once all have
// answered decode folds each response into the caller's state, leg by leg on
// the calling goroutine — so it may write shared slices freely. Failures are
// labelled per daemon and joined in leg order.
func (c *Cluster) scatter(ctx context.Context, op uint8, label string, paths []string, legs []leg, decode func(l leg, resp []byte) error) error {
	if len(legs) == 0 {
		return nil
	}
	type answer struct {
		resp []byte
		err  error
	}
	answers := make([]answer, len(legs))
	fanOut(len(legs), func(k int) {
		a := &answers[k]
		a.resp, a.err = c.call(ctx, legs[k].daemon, op, legs[k].payload(paths))
	})
	var errs []error
	for k, l := range legs {
		err := answers[k].err
		if err == nil {
			err = decode(l, answers[k].resp)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("proto: %s at MDS %d: %w", label, l.daemon, err))
		}
	}
	return errors.Join(errs...)
}

// hasLocalVector is the L4 round: every daemon in ids receives the whole
// remaining vector, and homes[i] is the daemon that authoritatively homes
// paths[i] (-1 when none does). On the mux transport the gather cancels the
// remaining probes once every path has found its home — a positive is a
// store check, not a filter guess, so only the true home answers one and the
// first positive per path is decisive. An abandoned mux call is discarded by
// request ID without harming the shared connection; the classic transport
// poisons a cancelled pooled connection, so there the gather runs to
// completion instead.
func (c *Cluster) hasLocalVector(ctx context.Context, ids []int, paths []string) ([]int, error) {
	payload := encodePaths(paths)
	searchCtx := ctx
	cancelRest := func() {}
	if c.useMux {
		var cancel context.CancelFunc
		searchCtx, cancel = context.WithCancel(ctx)
		defer cancel()
		cancelRest = cancel
	}
	homes := make([]int, len(paths))
	for i := range homes {
		homes[i] = -1
	}
	unresolved := len(paths)
	var mu sync.Mutex
	errs := make([]error, len(ids))
	fanOut(len(ids), func(k int) {
		resp, err := c.call(searchCtx, ids[k], opHasLocalBatch, payload)
		var answers []bool
		if err == nil {
			answers, err = decodeBools(resp, len(paths))
		}
		if err != nil {
			errs[k] = fmt.Errorf("proto: has-local batch at MDS %d: %w", ids[k], err)
			return
		}
		mu.Lock()
		defer mu.Unlock()
		for i, has := range answers {
			if has && homes[i] == -1 {
				homes[i] = ids[k]
				unresolved--
			}
		}
		if unresolved == 0 {
			cancelRest()
		}
	})
	for _, err := range errs {
		// Probes the winner cancelled are expected, not failures — but only
		// when the cancellation was ours, not the caller's.
		if err == nil || unresolved == 0 && errors.Is(err, context.Canceled) && ctx.Err() == nil {
			continue
		}
		return nil, err
	}
	return homes, nil
}

// amortized spreads one batch's wall-clock cost over its operations.
func amortized(d time.Duration, n int) time.Duration {
	if n <= 0 {
		return 0
	}
	return d / time.Duration(n)
}
