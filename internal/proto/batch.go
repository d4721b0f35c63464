package proto

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	"ghba/internal/bloomarray"
	"ghba/internal/trace"
	"ghba/internal/wal"
)

// This file is the coordinator's one way onto the wire for namespace
// operations: every lookup, create and delete travels as a vector — a whole
// ApplyBatch window, or a vector of one for Lookup/Apply — so syscalls, frame
// headers, digest computation, daemon lock acquisitions and WAL fsyncs (one
// per home daemon per mutation round) amortize across whatever the caller
// hands over. The draw pattern is fixed (one RNG draw per create or lookup in
// op order, none per delete) and each path's claim in the home index and
// in-flight table is the linearization point, so a fixed-seed trace replays
// onto the same homes at every vector length.

// ApplyBatch dispatches a vector of trace records through the batch RPCs.
// RNG draws happen in op order (one per create or open, none per delete).
// Execution is wave-scheduled over two kinds, mutation (create, delete) and
// lookup: each op's wave is its position in its own path's kind-alternation
// chain — the first run of same-kind ops on a path is wave 0, the next kind
// on that path wave 1, and so on — and waves execute in order, each as one
// mutation round (mutateRun: one mutate_batch RPC per home daemon, carrying
// its records in op order; a round mutateRun cuts short continues in
// another) and then one lookup vector. Within a wave the mutations and the
// lookup vector are path-disjoint by construction, so their relative order
// cannot change any per-path outcome, while a lookup after a mutation of its
// path (or the reverse) lands exactly as a serial Apply loop would place it.
// A create of an existing path is an open: it walks with the wave's lookups,
// or before the next round when its round was cut short. Per-op homes
// and existence results are identical to a serial Apply loop's; lookup levels
// can differ when a reordered unrelated mutation shifts a filter's
// false-positive pattern. Results align with recs. A vector holding a path
// the wire cannot frame is refused whole, before any draw.
func (c *Cluster) ApplyBatch(ctx context.Context, rng *rand.Rand, recs []trace.Record) ([]LookupResult, error) {
	if len(recs) == 0 {
		return nil, nil
	}
	paths := make([]string, len(recs))
	for i, rec := range recs {
		paths[i] = rec.Path
	}
	if err := checkPaths(paths...); err != nil {
		return nil, err
	}
	results := make([]LookupResult, len(recs))
	// Pass 1: the draws, in op order, before any RPC, so a fixed seed homes
	// every file identically however the window is cut into vectors.
	f := c.fleet.Load()
	draws := make([]int, len(recs))
	for i, rec := range recs {
		if rec.Op != trace.OpDelete {
			draws[i] = f.Draw(rng)
		}
	}
	// Pass 2: assign waves along each path's kind-alternation chain.
	type pathState struct {
		mutation bool
		wave     int
	}
	type wave struct {
		mutations, lookups []int
	}
	last := make(map[string]pathState)
	var waves []wave
	for i, rec := range recs {
		mut := isMutation(rec.Op)
		w := 0
		if st, ok := last[rec.Path]; ok {
			w = st.wave
			if st.mutation != mut {
				w++
			}
		}
		last[rec.Path] = pathState{mutation: mut, wave: w}
		for len(waves) <= w {
			waves = append(waves, wave{})
		}
		if mut {
			waves[w].mutations = append(waves[w].mutations, i)
		} else {
			waves[w].lookups = append(waves[w].lookups, i)
		}
	}
	// Pass 3: execute the waves in order.
	for _, wv := range waves {
		lookups := wv.lookups
		for rest := wv.mutations; len(rest) > 0; {
			opens, next, err := c.mutateRun(ctx, recs, draws, rest, results)
			if err != nil {
				return nil, err
			}
			if rest = next; len(rest) == 0 {
				lookups = append(lookups, opens...)
				slices.Sort(lookups)
			} else if err := c.lookupRun(ctx, paths, draws, opens, results); err != nil {
				return nil, err
			}
		}
		if err := c.lookupRun(ctx, paths, draws, lookups, results); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// isMutation reports whether op changes the namespace; everything else
// replays as a lookup.
func isMutation(op trace.OpType) bool {
	return op == trace.OpCreate || op == trace.OpDelete
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

// flight is a path a mutation round has claimed and not yet resolved: its
// mutate_batch has not returned. Other rounds wait on done rather than claim
// the path. home is where the round leaves the path once it lands (-1:
// absent); RestartMDS's reconcile reads it as ground truth while the round
// is in flight, as it reads the home index for every other path.
type flight struct {
	done chan struct{}
	home int
}

// flightShard holds the in-flight paths of one shard of the home index.
type flightShard struct {
	mu sync.Mutex
	m  map[string]*flight
}

// flightShard returns the shard of the in-flight table owning path.
func (c *Cluster) flightShard(path string) *flightShard {
	i, _ := c.homes.Locate(path)
	return &c.flights[i]
}

// inFlight returns the flight holding path, or nil.
func (c *Cluster) inFlight(path string) *flight {
	fs := c.flightShard(path)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.m[path]
}

// claim takes path for the calling round. It returns the new flight, or the
// flight of the round that holds path already — the caller waits for it or
// cuts its own round — and, on a claim, appends to cands the homes of the
// index cells sharing path's tag: the daemons that might store it.
func (c *Cluster) claim(path string, cands []int) (mine, busy *flight, _ []int) {
	fs := c.flightShard(path)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f := fs.m[path]; f != nil {
		return nil, f, cands
	}
	if fs.m == nil {
		fs.m = make(map[string]*flight)
	}
	f := &flight{done: make(chan struct{}), home: -1}
	fs.m[path] = f
	return f, nil, c.homes.Candidates(path, cands)
}

// release ends path's flight and wakes the rounds waiting for it.
func (c *Cluster) release(path string, f *flight) {
	fs := c.flightShard(path)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	delete(fs.m, path)
	close(f.done)
}

// claimed is what a mutation round knows of one path it holds: where the
// records it has taken so far leave the path (home, -1 absent; unknown
// until a first delete has asked cands), and sentTo, the one daemon its
// records go to (-1 once opened or sent to several, unset before the first).
type claimed struct {
	f      *flight
	cands  []int
	known  bool
	home   int
	sentTo int
}

const unsent = -2

// mutateRun executes one mutation round over recs[idxs] (creates and
// deletes, in op order). Each record's path is claimed in op order under
// its home-index shard — the linearization point, so two workers racing on
// one path cannot both home it — and each home daemon then receives one
// opMutateBatch carrying its records in op order: one WAL append, one fsync.
//
// A create whose tag matches no index cell claims its draw at once; one
// whose tag matches asks each matching daemon with a verify_batch first,
// and a create of an existing path is an open, returned for the caller to
// walk once the round has landed. A delete goes to the daemons whose cells
// match its tag, and finds its file where a daemon answers that it held
// it; a delete of a path no cell matches — or a second delete of one path
// within the round — reports not-found without touching the wire. Cells
// move only when the answers are in: a create's cell is inserted, a found
// delete's dropped, for every leg that landed while its daemon's
// incarnation stood, so a failed leg has nothing to withdraw.
//
// A path another round holds in flight is waited for when this round holds
// no claims yet; otherwise the round ends there, returning the unexecuted
// rest, so two rounds never wait on each other. The round also ends early at
// a record whose path it already sent to another daemon or already opened:
// with one path's records split over two legs, a failed leg could leave the
// path at both daemons, and the open must see the path before it changes
// again. The claims run under the membership lock shared, so FailMDS and
// RestartMDS, which rewrite cells and read the in-flight table, see every
// round's claims whole. A confirming verify_batch runs under it; the
// mutate_batch RPCs do not.
func (c *Cluster) mutateRun(ctx context.Context, recs []trace.Record, draws, idxs []int, out []LookupResult) (opens, rest []int, err error) {
	var legs []leg
	var claimErr error
	held := make(map[string]*claimed)
	c.mu.RLock()
claims:
	for k := 0; k < len(idxs); k++ {
		i := idxs[k]
		p := recs[i].Path
		st := held[p]
		if st == nil {
			mine, busy, cands := c.claim(p, nil)
			if busy != nil {
				if len(held) > 0 {
					rest = idxs[k:]
					break
				}
				c.mu.RUnlock()
				select {
				case <-busy.done:
				case <-ctx.Done():
					claimErr = ctx.Err()
				}
				c.mu.RLock()
				if claimErr != nil {
					break
				}
				k--
				continue
			}
			st = &claimed{f: mine, cands: cands, known: len(cands) == 0, home: -1, sentTo: unsent}
			if !st.known && recs[i].Op == trace.OpCreate {
				if st.home, claimErr = c.confirmCreate(ctx, p, cands); claimErr != nil {
					c.release(p, mine)
					break
				}
				st.known, mine.home = true, st.home
			}
			held[p] = st
		}
		var targets []int
		switch {
		case recs[i].Op == trace.OpCreate && st.home >= 0:
			opens = append(opens, i)
			st.sentTo = -1
			continue
		case recs[i].Op == trace.OpCreate:
			targets = draws[i : i+1]
		case st.known && st.home < 0:
			out[i] = LookupResult{Path: p, Home: -1}
			continue
		case st.known:
			targets = []int{st.home}
		default:
			targets = st.cands
		}
		for _, d := range targets {
			if st.sentTo != unsent && st.sentTo != d {
				rest = idxs[k:]
				break claims
			}
		}
		if len(targets) == 1 {
			st.sentTo = targets[0]
		} else {
			st.sentTo = -1
		}
		for _, d := range targets {
			legs = addLeg(legs, d, i)
		}
		st.known = true
		st.home = -1
		if recs[i].Op == trace.OpCreate {
			st.home = targets[0]
		} else {
			out[i] = LookupResult{Path: p, Home: -1}
		}
		st.f.home = st.home
	}
	incs := make([]uint64, len(legs))
	for k, l := range legs {
		incs[k] = c.incarnation[l.daemon]
	}
	c.mu.RUnlock()

	start := time.Now()
	exists := make([][]bool, len(legs))
	crossed := make([]bool, len(legs))
	rebuilt := make([]bool, len(legs))
	errs := make([]error, len(legs))
	fanOut(len(legs), func(k int) {
		l := legs[k]
		resp, err := c.call(ctx, l.daemon, opMutateBatch, encodeMutations(incs[k], walRecords(recs, l.slots)))
		if err == nil {
			exists[k], crossed[k], rebuilt[k], err = decodeMutateResp(resp, len(l.slots))
		}
		if err != nil {
			errs[k] = fmt.Errorf("proto: mutate batch at MDS %d: %w", l.daemon, err)
		}
	})
	c.resolve(recs, legs, incs, exists, errs, held)
	if err := errors.Join(append(errs, claimErr)...); err != nil {
		return nil, nil, err
	}
	// The mutations themselves succeeded; a ship failure (say, a replica
	// holder dying mid-failover) leaves a stale replica that lookups
	// tolerate, so it is reported but never withdraws a cell.
	return opens, rest, c.settle(ctx, recs, legs, exists, crossed, rebuilt, time.Since(start), out)
}

// confirmCreate asks each daemon in cands, whose index cells share path's
// tag, whether it stores path — one verify_batch each, in parallel — since a
// create of a path that exists is an open. It returns the daemon that does,
// or -1. Almost every create skips this: at 32-bit tags about one fresh
// create in ten million meets a same-tag cell. A re-create of an existing
// path always pays it, and then walks as an open.
func (c *Cluster) confirmCreate(ctx context.Context, path string, cands []int) (int, error) {
	probes := make([]probe, len(cands))
	for k, d := range cands {
		probes[k] = probe{daemon: d}
	}
	c.confirms.Add(uint64(len(cands)))
	ok, err := c.verifyProbes(ctx, []string{path}, probes)
	if err != nil {
		return -1, err
	}
	for k, d := range cands {
		if ok[k] {
			return d, nil
		}
	}
	return -1, nil
}

// resolve moves the round's cells and ends its flights. A leg that landed
// while its daemon still serves the incarnation it was claimed under
// inserts a cell per create and drops one per delete the daemon found, in
// op order; a failed leg moves nothing, and neither does one whose daemon's
// incarnation moved meanwhile — RestartMDS reconciled ground truth with what
// the recovered daemon holds, or FailMDS scrubbed its files, and either way
// the index already agrees with the daemon whether or not the leg applied.
func (c *Cluster) resolve(recs []trace.Record, legs []leg, incs []uint64, exists [][]bool, errs []error, held map[string]*claimed) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for k, l := range legs {
		if errs[k] != nil || c.incarnation[l.daemon] != incs[k] {
			continue
		}
		for s, i := range l.slots {
			switch {
			case recs[i].Op == trace.OpCreate:
				c.homes.Insert(recs[i].Path, l.daemon)
			case exists[k][s]:
				c.homes.Remove(recs[i].Path, l.daemon)
			}
		}
	}
	for p, st := range held {
		c.release(p, st.f)
	}
}

// walRecords gathers the records a leg's slots select, in op order, as the
// WAL records the daemon will log.
func walRecords(recs []trace.Record, slots []int) []wal.Record {
	out := make([]wal.Record, len(slots))
	for k, i := range slots {
		op := wal.OpDelete
		if recs[i].Op == trace.OpCreate {
			op = wal.OpCreate
		}
		out[k] = wal.Record{Op: op, Path: recs[i].Path}
	}
	return out
}

// settle closes a mutation round whose legs all landed: every create
// reports its leg's daemon as home, every delete the daemon that answered
// that it held the file (none: not found), each an equal share of the
// round's wall time; and each flag a leg raised (its creates crossed the
// ship threshold, a delete rebuilt its filter) feeds the coalescing ship
// queue one note, in ascending daemon order — the order a serial loop's
// drains preserve.
func (c *Cluster) settle(ctx context.Context, recs []trace.Record, legs []leg, exists [][]bool, crossed, rebuilt []bool, elapsed time.Duration, out []LookupResult) error {
	landed := 0
	for _, l := range legs {
		landed += len(l.slots)
	}
	perLat := amortized(elapsed, landed)
	var origins []int
	for k, l := range legs {
		for s, i := range l.slots {
			out[i].Latency = perLat
			if exists[k][s] {
				out[i] = LookupResult{Path: recs[i].Path, Home: l.daemon, Found: true, Latency: perLat}
			}
		}
		if crossed[k] {
			origins = append(origins, l.daemon)
		}
		if rebuilt[k] {
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
	snap := c.fleet.Load()
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
		c1, ok1 := candidate(snap.IDs(), l1[i])
		if ok1 {
			probes = append(probes, probe{idx: i, daemon: c1, level: 1})
		}
		if c2, ok := candidate(snap.IDs(), l2[i]); ok && !(ok1 && c2 == c1) {
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
		for _, m := range snap.Members(entries[i]) {
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
			if h, ok := candidate(snap.IDs(), unions[i]); ok {
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
		if err := c.hasLocalVector(ctx, snap.IDs(), paths, rem, results); err != nil {
			return nil, err
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
	return results, c.observeMany(ctx, snap.IDs(), obs)
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

// hasLocalVector is the L4 round, one scatter over every daemon in ids: each
// receives the paths the slots in rem select, and the fold resolves each path
// at Level 4 with the first daemon that answers yes, or as absent when none
// does. A positive is a store check, not a filter guess, so only the true
// home answers one, and leg order cannot change the result.
func (c *Cluster) hasLocalVector(ctx context.Context, ids []int, paths []string, rem []int, results []LookupResult) error {
	legs := make([]leg, len(ids))
	for k, id := range ids {
		legs[k] = leg{daemon: id, slots: rem}
	}
	for _, i := range rem {
		results[i] = LookupResult{Home: -1, Level: 4}
	}
	return c.scatter(ctx, opHasLocalBatch, "has-local batch", paths, legs, func(l leg, resp []byte) error {
		answers, err := decodeBools(resp, len(l.slots))
		if err != nil {
			return err
		}
		for k, i := range l.slots {
			if answers[k] && !results[i].Found {
				results[i] = LookupResult{Home: l.daemon, Found: true, Level: 4}
			}
		}
		return nil
	})
}

// amortized spreads one batch's wall-clock cost over its operations.
func amortized(d time.Duration, n int) time.Duration {
	if n <= 0 {
		return 0
	}
	return d / time.Duration(n)
}
