package proto

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ghba/internal/bloomarray"
	"ghba/internal/trace"
)

// This file implements the batch RPC paths: the coordinator carries a whole
// vector of operations per wire round, so syscalls, frame headers, digest
// computation and daemon lock acquisitions amortize across the vector. The
// semantics mirror the serial per-op paths exactly — same level resolution,
// same homes-map linearization, same RNG draw pattern (one draw per create
// or lookup in op order, none per delete) — so a fixed-seed trace replays
// onto the same homes whichever path drives it.

// LookupBatch resolves a vector of paths through the batch RPCs, drawing
// each path's entry MDS from rng in path order. Results align with paths;
// Latency and Messages on each result are amortized shares of the whole
// vector's cost (homes, existence and levels are exact per path).
func (c *Cluster) LookupBatch(ctx context.Context, rng *rand.Rand, paths []string) ([]LookupResult, error) {
	ids := c.snapshotIDs()
	entries := make([]int, len(paths))
	for i := range paths {
		entries[i] = ids[rng.Intn(len(ids))]
	}
	return c.lookupVector(ctx, paths, entries)
}

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
// are identical to the serial path's; lookup levels can differ when a
// reordered unrelated mutation shifts a filter's false-positive pattern.
// Results align with recs.
func (c *Cluster) ApplyBatch(ctx context.Context, rng *rand.Rand, recs []trace.Record) ([]LookupResult, error) {
	if len(recs) == 0 {
		return nil, nil
	}
	results := make([]LookupResult, len(recs))
	// Pass 1: the draws, in op order, before any RPC — the serial draw
	// pattern, so a fixed seed homes every file identically.
	ids := c.snapshotIDs()
	draws := make([]int, len(recs))
	for i, rec := range recs {
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
			if err := c.createRun(ctx, recs, draws, wv.creates, results); err != nil {
				return nil, err
			}
		}
		if len(wv.deletes) > 0 {
			if err := c.deleteRun(ctx, recs, wv.deletes, results); err != nil {
				return nil, err
			}
		}
		if len(wv.lookups) > 0 {
			if err := c.lookupRun(ctx, recs, draws, wv.lookups, results); err != nil {
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

// createRun executes one vector of creates (idxs index into recs, in op
// order): homes-map claims resolve in op order (the linearization point, as
// in the serial path), fresh creates group into one opCreateBatch per home
// daemon, and creates of existing paths degenerate to opens — run as a
// lookup vector after the creates land, so an open of a path created
// earlier in the same vector finds it.
func (c *Cluster) createRun(ctx context.Context, recs []trace.Record, draws []int, idxs []int, out []LookupResult) error {
	byHome := make(map[int][]int)
	var opens []int
	c.homesMu.Lock()
	for _, i := range idxs {
		if _, exists := c.homes[recs[i].Path]; exists {
			opens = append(opens, i)
			continue
		}
		c.homes[recs[i].Path] = draws[i]
		byHome[draws[i]] = append(byHome[draws[i]], i)
	}
	c.homesMu.Unlock()

	start := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var errs []error
	var crossedHomes []int
	for home, idxs := range byHome {
		wg.Add(1)
		go func(home int, idxs []int) {
			defer wg.Done()
			sub := make([]string, len(idxs))
			for k, i := range idxs {
				sub[k] = recs[i].Path
			}
			resp, err := c.call(ctx, home, opCreateBatch, encodePaths(sub), nil)
			var crossed bool
			if err == nil {
				crossed, err = decodeCreateResp(resp)
			}
			if err != nil {
				// The daemon never homed these files; withdraw the claims so
				// ground truth does not drift from daemon state.
				c.homesMu.Lock()
				for _, i := range idxs {
					delete(c.homes, recs[i].Path)
				}
				c.homesMu.Unlock()
				mu.Lock()
				errs = append(errs, fmt.Errorf("proto: create batch at MDS %d: %w", home, err))
				mu.Unlock()
				return
			}
			if crossed {
				mu.Lock()
				crossedHomes = append(crossedHomes, home)
				mu.Unlock()
			}
		}(home, idxs)
	}
	wg.Wait()
	if len(errs) > 0 {
		// Goroutines appended under map-iteration fan-out; order the join
		// deterministically so error text is seed-stable.
		sort.Slice(errs, func(i, j int) bool { return errs[i].Error() < errs[j].Error() })
		return errors.Join(errs...)
	}
	perLat := amortized(time.Since(start), len(idxs)-len(opens))
	for home, idxs := range byHome {
		for _, i := range idxs {
			out[i] = LookupResult{Home: home, Found: true, Level: 0, Latency: perLat}
		}
	}
	// Threshold crossings feed the coalescing ship queue in ascending home
	// order — the order the serial loop's drains preserve.
	sort.Ints(crossedHomes)
	for _, home := range crossedHomes {
		if err := c.shipBatch(ctx, c.ships.Note(home)); err != nil {
			return err
		}
	}
	if len(opens) > 0 {
		paths := make([]string, len(opens))
		entries := make([]int, len(opens))
		for k, i := range opens {
			paths[k] = recs[i].Path
			entries[k] = draws[i]
		}
		res, err := c.lookupVector(ctx, paths, entries)
		if err != nil {
			return err
		}
		for k, i := range opens {
			out[i] = res[k]
		}
	}
	return nil
}

// deleteRun executes one vector of deletes: claims removed in op order, one
// opDeleteBatch per home daemon, rebuilds routed into the ship queue.
func (c *Cluster) deleteRun(ctx context.Context, recs []trace.Record, idxs []int, out []LookupResult) error {
	byHome := make(map[int][]int)
	c.homesMu.Lock()
	for _, i := range idxs {
		home, ok := c.homes[recs[i].Path]
		if !ok {
			// A second delete of the same path within the vector misses here
			// too: the first removal already claimed it.
			out[i] = LookupResult{Home: -1, Found: false, Level: 0}
			continue
		}
		delete(c.homes, recs[i].Path)
		byHome[home] = append(byHome[home], i)
	}
	c.homesMu.Unlock()
	if len(byHome) == 0 {
		return nil
	}

	start := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var errs []error
	var rebuiltHomes []int
	total := 0
	for _, idxs := range byHome {
		total += len(idxs)
	}
	for home, idxs := range byHome {
		wg.Add(1)
		go func(home int, idxs []int) {
			defer wg.Done()
			sub := make([]string, len(idxs))
			for k, i := range idxs {
				sub[k] = recs[i].Path
			}
			resp, err := c.call(ctx, home, opDeleteBatch, encodePaths(sub), nil)
			if err != nil {
				// The daemon may still hold the files; restore the claims so
				// ground truth stays consistent (a racing create of the same
				// path has priority and keeps its new home).
				c.homesMu.Lock()
				for _, i := range idxs {
					if _, reclaimed := c.homes[recs[i].Path]; !reclaimed {
						c.homes[recs[i].Path] = home
					}
				}
				c.homesMu.Unlock()
				mu.Lock()
				errs = append(errs, fmt.Errorf("proto: delete batch at MDS %d: %w", home, err))
				mu.Unlock()
				return
			}
			if len(resp) != len(idxs)+1 {
				mu.Lock()
				errs = append(errs, fmt.Errorf("proto: delete batch response wants %d bytes, got %d", len(idxs)+1, len(resp)))
				mu.Unlock()
				return
			}
			if resp[len(idxs)] == 1 {
				mu.Lock()
				rebuiltHomes = append(rebuiltHomes, home)
				mu.Unlock()
			}
		}(home, idxs)
	}
	wg.Wait()
	if len(errs) > 0 {
		// Goroutines appended under map-iteration fan-out; order the join
		// deterministically so error text is seed-stable.
		sort.Slice(errs, func(i, j int) bool { return errs[i].Error() < errs[j].Error() })
		return errors.Join(errs...)
	}
	perLat := amortized(time.Since(start), total)
	for home, idxs := range byHome {
		for _, i := range idxs {
			out[i] = LookupResult{Home: home, Found: true, Level: 0, Latency: perLat}
		}
	}
	sort.Ints(rebuiltHomes)
	for _, home := range rebuiltHomes {
		if err := c.shipBatch(ctx, c.ships.Note(home)); err != nil {
			return err
		}
	}
	return nil
}

// lookupRun resolves one vector of reads with the pre-drawn entries.
func (c *Cluster) lookupRun(ctx context.Context, recs []trace.Record, draws []int, idxs []int, out []LookupResult) error {
	paths := make([]string, len(idxs))
	entries := make([]int, len(idxs))
	for k, i := range idxs {
		paths[k] = recs[i].Path
		entries[k] = draws[i]
	}
	res, err := c.lookupVector(ctx, paths, entries)
	if err != nil {
		return err
	}
	for k, i := range idxs {
		out[i] = res[k]
	}
	return nil
}

// lookupVector resolves paths[i] entering at entries[i], batching every
// level of the hierarchy: one opLookupBatch per distinct entry daemon,
// opVerifyBatch per candidate daemon, one opQueryMemberBatch per groupmate
// (L3), and one opHasLocalBatch scatter-gather across all daemons (L4).
func (c *Cluster) lookupVector(ctx context.Context, paths []string, entries []int) ([]LookupResult, error) {
	if len(paths) == 0 {
		return nil, nil
	}
	start := time.Now()
	var msgs atomic.Int64
	results := make([]LookupResult, len(paths))
	resolved := make([]bool, len(paths))
	ids := c.snapshotIDs()

	// Entry leg: L1 + L2 hits for every path, one RPC per distinct entry.
	byEntry := make(map[int][]int)
	for i, e := range entries {
		byEntry[e] = append(byEntry[e], i)
	}
	l1 := make([][]int, len(paths))
	l2 := make([][]int, len(paths))
	err := c.scatter(ctx, opLookupBatch, "lookup batch", paths, byEntry, &msgs, func(_ int, idxs []int, resp []byte) error {
		hits, err := decodeHitsVec(resp, 2*len(idxs))
		if err != nil {
			return err
		}
		for k, i := range idxs {
			l1[i], l2[i] = hits[2*k], hits[2*k+1]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	finish := func(i, home, level int) {
		results[i] = LookupResult{Home: home, Found: true, Level: level}
		resolved[i] = true
	}

	// L1 + L2 verification in one speculative round: every unique L1 hit
	// and every distinct unique L2 hit verify together, and resolution
	// applies the serial order (L1 first, then L2), so homes and levels
	// match the one-level-at-a-time walk without paying two round trips. A
	// path whose L2 candidate equals its L1 candidate skips the duplicate:
	// the opVerify answer is an authoritative store check, so asking the
	// same daemon twice cannot change it.
	candsL1 := make(map[int]int)
	candsL2 := make(map[int]int)
	var pairs []verifyPair
	for i := range paths {
		if id, ok := candidate(ids, l1[i]); ok {
			candsL1[i] = id
			pairs = append(pairs, verifyPair{idx: i, daemon: id})
		}
		if id, ok := candidate(ids, l2[i]); ok {
			if prev, had := candsL1[i]; had && prev == id {
				continue
			}
			candsL2[i] = id
			pairs = append(pairs, verifyPair{idx: i, daemon: id})
		}
	}
	ans, err := c.verifyPairs(ctx, paths, pairs, &msgs)
	if err != nil {
		return nil, err
	}
	for i := range paths {
		if d, ok := candsL1[i]; ok && ans[verifyPair{idx: i, daemon: d}] {
			finish(i, d, 1)
			continue
		}
		if d, ok := candsL2[i]; ok && ans[verifyPair{idx: i, daemon: d}] {
			finish(i, d, 2)
		}
	}

	// L3: one scatter-gather round over the unresolved paths' group members,
	// grouped by target daemon — daemon m answers for every pending path
	// whose entry shares m's group, so the round costs one RPC per distinct
	// groupmate instead of one per entry × groupmate (and none at all when
	// groups are of one). The union covers the groupmates' arrays only —
	// each path's own entry already had its chance above, exactly as in the
	// serial path.
	byTarget := make(map[int][]int)
	unions := make([][]int, len(paths))
	for i := range paths {
		if resolved[i] {
			continue
		}
		for _, m := range c.groupMembers(entries[i]) {
			if m == entries[i] {
				continue
			}
			byTarget[m] = append(byTarget[m], i)
		}
	}
	err = c.scatter(ctx, opQueryMemberBatch, "member batch", paths, byTarget, &msgs, func(_ int, idxs []int, resp []byte) error {
		hits, err := decodeHitsVec(resp, len(idxs))
		if err != nil {
			return err
		}
		for k, i := range idxs {
			for _, h := range hits[k] {
				unions[i] = bloomarray.InsertSorted(unions[i], h)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	candsL3 := make(map[int]int)
	var pairs3 []verifyPair
	for i := range paths {
		if resolved[i] {
			continue
		}
		if h, ok := candidate(ids, unions[i]); ok {
			candsL3[i] = h
			pairs3 = append(pairs3, verifyPair{idx: i, daemon: h})
		}
	}
	ans3, err := c.verifyPairs(ctx, paths, pairs3, &msgs)
	if err != nil {
		return nil, err
	}
	for i, d := range candsL3 {
		if ans3[verifyPair{idx: i, daemon: d}] {
			finish(i, d, 3)
		}
	}

	// L4: one global scatter-gather round for everything still unresolved.
	var rem []int
	for i := range paths {
		if !resolved[i] {
			rem = append(rem, i)
		}
	}
	if len(rem) > 0 {
		sub := make([]string, len(rem))
		for k, i := range rem {
			sub[k] = paths[i]
		}
		homes, err := c.hasLocalVector(ctx, sub, &msgs)
		if err != nil {
			return nil, err
		}
		for k, i := range rem {
			results[i] = LookupResult{Home: homes[k], Found: homes[k] >= 0, Level: 4}
			resolved[i] = true
		}
	}

	// Finalize: tally, observe, and amortize the vector's cost per path.
	// The whole vector's confirmed lookups feed the L1 learning pipeline as
	// one bulk append, so a large vector multicasts at most one observation
	// batch instead of one per ObserveBatch lookups.
	perLat := amortized(time.Since(start), len(paths))
	perMsg := int(msgs.Load()) / len(paths)
	var obs []observation
	for i := range results {
		results[i].Latency = perLat
		results[i].Messages = perMsg
		c.tally.Record(results[i].Level)
		if results[i].Found {
			obs = append(obs, observation{home: results[i].Home, path: paths[i]})
		}
	}
	return results, c.observeMany(ctx, obs)
}

// verifyPair is one (path index, candidate daemon) verification probe.
type verifyPair struct {
	idx, daemon int
}

// verifyPairs issues one opVerifyBatch per distinct candidate daemon for
// the probe set — a path may carry probes at several daemons in the same
// round — and returns the authoritative answer per probe.
func (c *Cluster) verifyPairs(ctx context.Context, paths []string, pairs []verifyPair, ctr *atomic.Int64) (map[verifyPair]bool, error) {
	if len(pairs) == 0 {
		return nil, nil
	}
	byDaemon := make(map[int][]int)
	for _, p := range pairs {
		byDaemon[p.daemon] = append(byDaemon[p.daemon], p.idx)
	}
	for _, idxs := range byDaemon {
		sort.Ints(idxs)
	}
	answers := make(map[verifyPair]bool, len(pairs))
	err := c.scatter(ctx, opVerifyBatch, "verify batch", paths, byDaemon, ctr, func(d int, idxs []int, resp []byte) error {
		bs, err := decodeBools(resp, len(idxs))
		if err != nil {
			return err
		}
		for k, i := range idxs {
			answers[verifyPair{idx: i, daemon: d}] = bs[k]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return answers, nil
}

// scatter is the read path's one fan-out: every daemon in byDaemon receives,
// in parallel, one op RPC carrying the paths its index list selects, and
// decode folds each response into the caller's state. decode runs under the
// gather's mutex, so it may write shared maps and slices freely. Failures
// are labelled per daemon and joined in sorted order — goroutines finish in
// any order, error text must be seed-stable.
func (c *Cluster) scatter(ctx context.Context, op uint8, label string, paths []string, byDaemon map[int][]int, ctr *atomic.Int64, decode func(daemon int, idxs []int, resp []byte) error) error {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var errs []error
	for d, idxs := range byDaemon {
		wg.Add(1)
		go func(d int, idxs []int) {
			defer wg.Done()
			sub := make([]string, len(idxs))
			for k, i := range idxs {
				sub[k] = paths[i]
			}
			resp, err := c.call(ctx, d, op, encodePaths(sub), ctr)
			mu.Lock()
			defer mu.Unlock()
			if err == nil {
				err = decode(d, idxs, resp)
			}
			if err != nil {
				errs = append(errs, fmt.Errorf("proto: %s at MDS %d: %w", label, d, err))
			}
		}(d, idxs)
	}
	wg.Wait()
	sort.Slice(errs, func(i, j int) bool { return errs[i].Error() < errs[j].Error() })
	return errors.Join(errs...)
}

// hasLocalVector is the batched L4 round: every daemon receives the whole
// remaining vector, and homes[i] is the daemon that authoritatively homes
// paths[i] (-1 when none does). On the mux transport the gather cancels the
// remaining probes once every path has found its home — only the true home
// answers positive, so the first positive per path is decisive.
func (c *Cluster) hasLocalVector(ctx context.Context, paths []string, ctr *atomic.Int64) ([]int, error) {
	ids := c.snapshotIDs()
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
	var wg sync.WaitGroup
	errCh := make(chan error, len(ids))
	for _, id := range ids {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			resp, err := c.call(searchCtx, id, opHasLocalBatch, payload, ctr)
			var answers []bool
			if err == nil {
				answers, err = decodeBools(resp, len(paths))
			}
			if err != nil {
				errCh <- fmt.Errorf("proto: has-local batch at MDS %d: %w", id, err)
				return
			}
			mu.Lock()
			for i, has := range answers {
				if has && homes[i] == -1 {
					homes[i] = id
					unresolved--
				}
			}
			if unresolved == 0 {
				cancelRest()
			}
			mu.Unlock()
		}(id)
	}
	wg.Wait()
	close(errCh)
	mu.Lock()
	done := unresolved == 0
	mu.Unlock()
	for err := range errCh {
		// Probes the winner cancelled are expected, not failures — but only
		// when the cancellation was ours, not the caller's.
		if done && errors.Is(err, context.Canceled) && ctx.Err() == nil {
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
