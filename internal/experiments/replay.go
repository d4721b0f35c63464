// Package experiments contains one driver per table and figure of the
// paper's evaluation (Section 4 simulation, Section 5 prototype). Each
// driver builds the systems it compares, generates the workload, runs the
// measurement, and returns printable rows mirroring the paper's series.
// cmd/ghbabench is a thin wrapper around these drivers.
//
// Absolute numbers differ from the paper (the substrate is a simulator with
// synthetic traces, not a 2007 Linux cluster); the reproduced quantity is
// the relative behaviour — who wins, by roughly what factor, and where
// curves cross.
//
// Every replay dispatches against ghba.Backend. A driver that tunes
// core.Config fields the facade does not expose builds the cluster itself
// and wraps it with ghba.SimulationOver.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"ghba"
	"ghba/internal/trace"
)

// replayRNG builds worker w's record-dispatch RNG for a replay over a trace
// seeded with seed; trace.DispatchSeed is the shared derivation (the
// facade's fanOut uses it too), and the serial engine is worker 0.
func replayRNG(seed int64, worker int) *rand.Rand {
	return rand.New(rand.NewSource(trace.DispatchSeed(seed, worker)))
}

// Checkpoint is one point of a latency-versus-operations series.
type Checkpoint struct {
	// Ops is the number of operations replayed so far.
	Ops int
	// MeanLatency is the running average lookup latency (queue inclusive).
	MeanLatency time.Duration
}

// Replay feeds totalOps records from gen into sys, sampling the running
// mean latency every interval operations. Mutation records (create/delete)
// are applied but excluded from the latency average, as the paper measures
// metadata lookup operations. Entry points are drawn from an RNG derived
// from the generator's seed, so a serial replay is exactly the one-worker
// instance of ReplayParallel.
func Replay(ctx context.Context, sys ghba.Backend, gen *trace.Generator, totalOps, interval int) ([]Checkpoint, error) {
	if interval <= 0 {
		interval = totalOps
	}
	rng := replayRNG(gen.Config().Seed, 0)
	var (
		sum     float64
		lookups int
		points  []Checkpoint
	)
	for op := 1; op <= totalOps; op++ {
		res, err := sys.ApplyWith(ctx, rng, ghba.TraceOp(gen.Next()))
		if err != nil {
			return points, fmt.Errorf("experiments: replay op %d: %w", op, err)
		}
		if res.Level > 0 {
			sum += float64(res.Latency)
			lookups++
		}
		if op%interval == 0 || op == totalOps {
			mean := time.Duration(0)
			if lookups > 0 {
				mean = time.Duration(sum / float64(lookups))
			}
			points = append(points, Checkpoint{Ops: op, MeanLatency: mean})
		}
	}
	return points, nil
}

// ReplayStats summarizes one parallel (or one-worker) replay run.
type ReplayStats struct {
	// Ops is the number of records dispatched; Workers the goroutine count.
	Ops, Workers int
	// Lookups counts records resolved through the query hierarchy
	// (including creates of existing paths, which degenerate to opens).
	Lookups int
	// Creates and Deletes count mutations that hit live state; DeleteMisses
	// counts unlinks of paths that did not exist.
	Creates, Deletes, DeleteMisses int
	// MeanLookupLatency is the average lookup latency: simulated (queue
	// inclusive) on the sim backend, wall clock over real sockets on the
	// TCP backend. The simulated open-loop queue model assumes
	// arrival-ordered dispatch, so for the sim the value is only meaningful
	// on one-worker runs; multi-worker lanes interleave their simulated
	// clocks and inflate queue waits.
	MeanLookupLatency time.Duration
	// Elapsed is the wall-clock time of the replay.
	Elapsed time.Duration
}

// startLanes is the one parallel lane loop of this package: it splits the
// trace cfg describes n ways (see trace.SplitGenerators) and launches one
// goroutine per lane, handing lane w its generator, its RNG seeded
// trace.DispatchSeed(cfg.Seed, w) and its share of totalOps. It returns once
// the lanes are running; the caller waits on the group.
func startLanes(cfg trace.Config, totalOps, workers int, run func(w, n int, rng *rand.Rand, gen *trace.Generator)) (*sync.WaitGroup, error) {
	gens, err := trace.SplitGenerators(cfg, workers)
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		n := totalOps / workers
		if w < totalOps%workers {
			n++
		}
		if n == 0 {
			continue
		}
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			run(w, n, replayRNG(cfg.Seed, w), gens[w])
		}(w, n)
	}
	return &wg, nil
}

// laneStats is one replay lane's tally, folded into ReplayStats at the join.
type laneStats struct {
	sum                            float64
	lookups                        int
	creates, deletes, deleteMisses int
	err                            error
}

// count classifies one dispatched record by its result.
func (ls *laneStats) count(rec trace.Record, res ghba.Result) {
	switch {
	case res.Level > 0:
		ls.sum += float64(res.Latency)
		ls.lookups++
	case rec.Op == trace.OpCreate:
		ls.creates++
	case res.Found:
		ls.deletes++
	default:
		ls.deleteMisses++
	}
}

// ReplayParallel replays totalOps records against sys across the given
// number of worker goroutines. The workload is an n-way split of the trace
// described by cfg (see trace.SplitGenerators): every worker owns one lane
// of the stream and one seeded RNG, so a run is deterministic for a fixed
// (cfg, totalOps, workers) triple up to scheduling of the shared cluster
// state, and a one-worker run is bit-for-bit the serial Replay over the
// same generator config. Workers < 1 selects GOMAXPROCS. Any pending
// coalesced replica ships are flushed before returning, so the system is
// quiescent when the stats come back.
//
// With batchSize > 1 and a sys that is a ghba.BatchApplier, each worker
// dispatches its lane in batchSize vectors — many trace records per wire
// round, so a networked backend amortizes syscalls, frame headers and
// digests across the vector; otherwise it dispatches op by op. Lane
// assignment, per-worker RNG seeds and within-lane record order are the same
// either way.
func ReplayParallel(ctx context.Context, sys ghba.Backend, cfg trace.Config, totalOps, workers, batchSize int) (ReplayStats, error) {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > totalOps && totalOps > 0 {
		workers = totalOps
	}
	bs, ok := sys.(ghba.BatchApplier)
	vector := ok && batchSize > 1
	if !vector {
		batchSize = 1
	}

	lanes := make([]laneStats, workers)
	start := time.Now()
	wg, err := startLanes(cfg, totalOps, workers, func(w, n int, rng *rand.Rand, gen *trace.Generator) {
		ls := &lanes[w]
		recs := make([]trace.Record, 0, batchSize)
		ops := make([]ghba.Op, 0, batchSize)
		var one [1]ghba.Result
		for done := 0; done < n; done += len(recs) {
			recs, ops = recs[:0], ops[:0]
			for len(recs) < batchSize && done+len(recs) < n {
				rec := gen.Next()
				recs = append(recs, rec)
				ops = append(ops, ghba.TraceOp(rec))
			}
			results := one[:]
			var err error
			if vector {
				results, err = bs.ApplyBatch(ctx, rng, ops)
			} else {
				one[0], err = sys.ApplyWith(ctx, rng, ops[0])
			}
			if err != nil {
				ls.err = fmt.Errorf("worker %d, %d op(s) from op %d (%s %q): %w", w, len(recs), done, recs[0].Op, recs[0].Path, err)
				return
			}
			for i, res := range results {
				ls.count(recs[i], res)
			}
		}
	})
	if err != nil {
		return ReplayStats{}, err
	}
	wg.Wait()
	// Lane errors carry the per-op root cause (worker, op, path); surface
	// them ahead of a flush failure, which against a dead daemon is
	// usually just the same fault seen twice.
	for i := range lanes {
		if err := lanes[i].err; err != nil {
			if ferr := sys.Flush(ctx); ferr != nil {
				err = errors.Join(err, fmt.Errorf("experiments: flushing after replay: %w", ferr))
			}
			return ReplayStats{Ops: totalOps, Workers: workers}, err
		}
	}
	if err := sys.Flush(ctx); err != nil {
		return ReplayStats{}, fmt.Errorf("experiments: flushing after replay: %w", err)
	}
	elapsed := time.Since(start)

	stats := ReplayStats{Ops: totalOps, Workers: workers, Elapsed: elapsed}
	var sum float64
	for i := range lanes {
		ls := &lanes[i]
		sum += ls.sum
		stats.Lookups += ls.lookups
		stats.Creates += ls.creates
		stats.Deletes += ls.deletes
		stats.DeleteMisses += ls.deleteMisses
	}
	if stats.Lookups > 0 {
		stats.MeanLookupLatency = time.Duration(sum / float64(stats.Lookups))
	}
	return stats, nil
}

// PopulateFromGenerator pre-creates the generator's initial namespace on a
// backend ("all MDSs are initially populated randomly").
func PopulateFromGenerator(sys ghba.Backend, gen *trace.Generator) error {
	var paths []string
	gen.EachInitialPath(func(p string) bool {
		paths = append(paths, p)
		return true
	})
	return sys.CreateAll(context.Background(), paths)
}

// formatSeries renders checkpoints as "ops→latency" pairs for banners.
func formatSeries(points []Checkpoint) string {
	var b strings.Builder
	for i, p := range points {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%d→%v", p.Ops, p.MeanLatency.Round(10*time.Microsecond))
	}
	return b.String()
}
