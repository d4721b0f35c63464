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
	"runtime"
	"strings"
	"time"

	"ghba"
	"ghba/internal/trace"
)

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
// metadata lookup operations. The records run as one Drive lane seeded from
// the generator's seed, so a serial replay is exactly the one-worker
// instance of ReplayParallel. Each call starts that lane's RNG afresh.
func Replay(ctx context.Context, sys ghba.Backend, gen *trace.Generator, totalOps, interval int) ([]Checkpoint, error) {
	if interval <= 0 {
		interval = totalOps
	}
	var (
		sum     float64
		lookups int
		points  []Checkpoint
	)
	lanes := []ghba.Lane{traceLane(gen, totalOps)}
	err := ghba.Drive(ctx, sys, gen.Config().Seed, lanes, ghba.Shape{}, func(_, at int, _ []ghba.Op, res []ghba.Result, err error) error {
		if err != nil {
			return err
		}
		if res[0].Level > 0 {
			sum += float64(res[0].Latency)
			lookups++
		}
		if op := at + 1; op%interval == 0 || op == totalOps {
			mean := time.Duration(0)
			if lookups > 0 {
				mean = time.Duration(sum / float64(lookups))
			}
			points = append(points, Checkpoint{Ops: op, MeanLatency: mean})
		}
		return nil
	})
	if err != nil {
		return points, fmt.Errorf("experiments: replay: %w", err)
	}
	return points, nil
}

// traceLane is a Drive lane that replays the next n records of gen.
func traceLane(gen *trace.Generator, n int) ghba.Lane {
	return ghba.Lane{Len: n, Op: func(int) ghba.Op { return ghba.TraceOp(gen.Next()) }}
}

// splitLanes splits the trace cfg describes workers ways (see
// trace.SplitGenerators): lane w replays lane w of the stream, totalOps/workers
// records, one more when w < totalOps%workers.
func splitLanes(cfg trace.Config, totalOps, workers int) ([]ghba.Lane, error) {
	gens, err := trace.SplitGenerators(cfg, workers)
	if err != nil {
		return nil, err
	}
	lanes := make([]ghba.Lane, workers)
	for w, gen := range gens {
		n := totalOps / workers
		if w < totalOps%workers {
			n++
		}
		lanes[w] = traceLane(gen, n)
	}
	return lanes, nil
}

// ReplayStats summarizes one parallel (or one-worker) replay run.
type ReplayStats struct {
	// Ops is the number of records dispatched, counting the failed call's
	// records when a lane stops on an error; Workers the goroutine count.
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

// laneStats is one replay lane's tally, folded into ReplayStats at the join.
type laneStats struct {
	ops                            int
	sum                            float64
	lookups                        int
	creates, deletes, deleteMisses int
}

// count classifies one dispatched op by its result.
func (ls *laneStats) count(op ghba.Op, res ghba.Result) {
	switch {
	case res.Level > 0:
		ls.sum += float64(res.Latency)
		ls.lookups++
	case op.Kind == ghba.OpCreate:
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
// of the stream and one RNG seeded from cfg.Seed (see ghba.Drive), so a run
// is deterministic for a fixed (cfg, totalOps, workers) triple up to
// scheduling of the shared cluster state, and a one-worker run is
// bit-for-bit the serial Replay over the same generator config. Workers < 1
// selects GOMAXPROCS. Any pending coalesced replica ships are flushed before
// returning, so the system is quiescent when the stats come back.
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
	lanes, err := splitLanes(cfg, totalOps, workers)
	if err != nil {
		return ReplayStats{}, err
	}
	tally := make([]laneStats, workers)
	start := time.Now()
	err = ghba.Drive(ctx, sys, cfg.Seed, lanes, ghba.Shape{Vector: batchSize}, func(w, _ int, ops []ghba.Op, res []ghba.Result, err error) error {
		ls := &tally[w]
		ls.ops += len(ops)
		for i, r := range res {
			ls.count(ops[i], r)
		}
		return err
	})
	// Lane errors carry the per-op root cause (lane, op, path); surface
	// them ahead of a flush failure, which against a dead daemon is
	// usually just the same fault seen twice.
	if ferr := sys.Flush(ctx); ferr != nil {
		err = errors.Join(err, fmt.Errorf("experiments: flushing after replay: %w", ferr))
	}
	stats := ReplayStats{Workers: workers, Elapsed: time.Since(start)}
	var sum float64
	for i := range tally {
		ls := &tally[i]
		sum += ls.sum
		stats.Ops += ls.ops
		stats.Lookups += ls.lookups
		stats.Creates += ls.creates
		stats.Deletes += ls.deletes
		stats.DeleteMisses += ls.deleteMisses
	}
	if stats.Lookups > 0 {
		stats.MeanLookupLatency = time.Duration(sum / float64(stats.Lookups))
	}
	return stats, err
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
