// Command ghbactl drives an in-process prototype cluster for demonstrations
// and smoke tests: it boots N MDS daemons on loopback TCP, populates a
// namespace, replays lookups or mixed workloads, and reports latency, level
// and message statistics.
//
//	ghbactl -n 20 -m 7 -files 10000 -ops 2000
//	ghbactl -m 1 -n 20 -add 5                     # the HBA baseline: groups of one
//	ghbactl -throughput -workers 8 -ops 5000
//	ghbactl -replay -mix 70:20:10 -workers 4 -ops 5000
//	ghbactl -replay -rpcbatch 256 -ops 5000        # vectorized batch RPCs
//	ghbactl -transport classic -ops 2000           # pre-mux wire protocol
//
// -throughput switches the replay to the concurrent driver: the same
// lookup batch runs through the parallel engine at worker counts doubling
// from 1 up to -workers, reporting wall-clock lookups/sec, per-level hit
// shares, and RPC message counts over real sockets at each step.
//
// -replay drives a mixed lookup:create:delete workload through the unified
// backend API: creates and deletes are real RPCs that update the origin
// daemon's filter and ship XOR-delta replica updates over the wire, through
// the same replay engine (experiments.ReplayParallel) that serves the
// simulation.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"ghba"
	"ghba/internal/experiments"
	"ghba/internal/trace"
)

func main() {
	var (
		n          = flag.Int("n", 12, "number of MDS daemons")
		m          = flag.Int("m", 4, "max group size (1 = the HBA baseline: every daemon mirrors every other)")
		files      = flag.Int("files", 5_000, "namespace size")
		ops        = flag.Int("ops", 1_000, "operations to issue")
		adds       = flag.Int("add", 0, "MDS insertions to perform after the lookups")
		seed       = flag.Int64("seed", 1, "random seed")
		resid      = flag.Int("resident", 0, "replicas fitting in RAM (0 = unlimited)")
		penalty    = flag.Duration("disk-penalty", 0, "emulated disk cost when over the resident limit")
		throughput = flag.Bool("throughput", false, "concurrent driver: sweep worker counts and report lookups/sec")
		replay     = flag.Bool("replay", false, "replay a mixed workload through the unified backend API")
		mix        = flag.String("mix", "70:20:10", "lookup:create:delete ratio for -replay")
		shipBatch  = flag.Int("shipbatch", 1, "coalescing ship-queue drain batch for -replay (1 = ship at every threshold crossing)")
		workers    = flag.Int("workers", 8, "max parallel workers in -throughput / -replay mode")
		timeout    = flag.Duration("call-timeout", 0, "per-RPC deadline (0 = library default, negative = none)")
		transport  = flag.String("transport", "", "wire protocol: mux (default) or classic")
		rpcBatch   = flag.Int("rpcbatch", 1, "ops per batch-RPC vector in -replay mode (1 = per-op dispatch)")
	)
	flag.Parse()
	ctx := context.Background()

	per := uint64(*files / *n)
	cluster, err := ghba.StartPrototype(ghba.PrototypeConfig{
		Config: ghba.Config{
			NumMDS:              *n,
			MaxGroupSize:        *m,
			ExpectedFilesPerMDS: per*2 + 16,
			ShipBatch:           *shipBatch,
			Seed:                *seed,
		},
		ResidentReplicaLimit: *resid,
		DiskPenalty:          *penalty,
		CallTimeout:          *timeout,
		Transport:            *transport,
	})
	exitIf(err)
	defer cluster.Close()
	scheme := "G-HBA"
	if *m == 1 {
		scheme = "HBA"
	}
	fmt.Printf("ghbactl: %s cluster of %d daemons up (%s transport)\n",
		scheme, cluster.NumMDS(), cluster.Transport())

	if *replay {
		runReplay(ctx, cluster, *files, *ops, *workers, *rpcBatch, *mix, *seed)
	} else {
		paths := make([]string, *files)
		for i := range paths {
			paths[i] = fmt.Sprintf("/vol/d%d/f%d", i%97, i)
		}
		exitIf(cluster.CreateAll(ctx, paths))
		fmt.Printf("ghbactl: populated %d files\n", len(paths))
		if *throughput {
			runThroughput(ctx, cluster, paths, *ops, *workers)
		} else {
			runSerial(ctx, cluster, paths, *ops)
		}
	}

	for k := 1; k <= *adds; k++ {
		id, msgs, err := cluster.AddMDS(ctx)
		exitIf(err)
		fmt.Printf("ghbactl: added MDS %d (%d messages)\n", id, msgs)
	}
}

// runReplay feeds a mixed trace through the backend-level replay engine:
// every create, delete and lookup is a real RPC conversation. With rpcBatch
// > 1 the replay dispatches rpcBatch-op vectors through the batch RPCs.
func runReplay(ctx context.Context, cluster *ghba.Prototype, files, ops, workers, rpcBatch int, mix string, seed int64) {
	var l, c, d float64
	if _, err := fmt.Sscanf(mix, "%f:%f:%f", &l, &c, &d); err != nil {
		exitIf(fmt.Errorf("parsing -mix %q (want lookup:create:delete, e.g. 70:20:10): %w", mix, err))
	}
	profile, err := trace.MixProfile(l, c, d)
	exitIf(err)
	tcfg := trace.Config{
		Profile:          profile,
		TIF:              2,
		FilesPerSubtrace: uint64(files) / 2,
		Seed:             seed,
	}
	gen, err := trace.NewGenerator(tcfg)
	exitIf(err)
	exitIf(experiments.PopulateFromGenerator(cluster, gen))
	fmt.Printf("ghbactl: populated %d files, replaying %d ops (mix %s, %d workers)\n",
		cluster.FileCount(), ops, mix, workers)

	before := cluster.LevelCounts()
	stats, err := experiments.ReplayParallel(ctx, cluster, tcfg, ops, workers, rpcBatch)
	exitIf(err)
	after := cluster.LevelCounts()

	fmt.Printf("ghbactl: %d ops in %v — %.0f ops/s over real sockets\n",
		stats.Ops, stats.Elapsed.Round(time.Millisecond), stats.OpsPerSec)
	fmt.Printf("ghbactl: lookups=%d (mean RPC latency %v) creates=%d deletes=%d (+%d missed)\n",
		stats.Lookups, stats.MeanLookupLatency.Round(time.Microsecond),
		stats.Creates, stats.Deletes, stats.DeleteMisses)
	if stats.Lookups > 0 {
		nl := float64(stats.Lookups) / 100
		fmt.Printf("ghbactl: levels L1=%.1f%% L2=%.1f%% L3=%.1f%% L4=%.1f%%\n",
			float64(after[1]-before[1])/nl, float64(after[2]-before[2])/nl,
			float64(after[3]-before[3])/nl, float64(after[4]-before[4])/nl)
	}
	fmt.Printf("ghbactl: RPC messages=%d, replica-update msgs=%d, files now %d\n",
		cluster.Cluster().Messages(), cluster.ReplicaUpdates(), cluster.FileCount())
}

// runSerial replays ops lookups one at a time — the original Fig 14 driver.
func runSerial(ctx context.Context, cluster *ghba.Prototype, paths []string, ops int) {
	levels := map[int]int{}
	var total time.Duration
	start := time.Now()
	for i := 0; i < ops; i++ {
		res, err := cluster.Lookup(ctx, paths[(i*31)%len(paths)])
		exitIf(err)
		if !res.Found {
			exitIf(fmt.Errorf("lost file %s", paths[(i*31)%len(paths)]))
		}
		levels[res.Level]++
		total += res.Latency
	}
	wall := time.Since(start)
	fmt.Printf("ghbactl: %d lookups in %v (%.0f req/s), mean RPC latency %v\n",
		ops, wall.Round(time.Millisecond),
		float64(ops)/wall.Seconds(), (total / time.Duration(ops)).Round(time.Microsecond))
	fmt.Printf("ghbactl: levels L1=%d L2=%d L3=%d L4=%d, RPC messages=%d\n",
		levels[1], levels[2], levels[3], levels[4], cluster.Cluster().Messages())
}

// runThroughput replays the same batch through the parallel driver at
// worker counts doubling from 1 to maxWorkers.
func runThroughput(ctx context.Context, cluster *ghba.Prototype, paths []string, ops, maxWorkers int) {
	batch := make([]string, ops)
	for i := range batch {
		batch[i] = paths[(i*31)%len(paths)]
	}
	// Warmup: train the LRU arrays once, unmeasured, so every worker
	// count then measures the same L1-warm workload.
	if _, err := ghba.LookupParallel(ctx, cluster, batch, maxWorkers); err != nil {
		exitIf(err)
	}
	fmt.Printf("ghbactl: throughput mode, %d lookups per run (after warmup)\n", len(batch))
	pc := cluster.Cluster()
	var base float64
	for w := 1; w <= maxWorkers; w *= 2 {
		pc.ResetMessages()
		start := time.Now()
		results, err := ghba.LookupParallel(ctx, cluster, batch, w)
		exitIf(err)
		wall := time.Since(start)
		levels := map[int]int{}
		for i, res := range results {
			if !res.Found {
				exitIf(fmt.Errorf("lost file %s", batch[i]))
			}
			levels[res.Level]++
		}
		rate := float64(len(batch)) / wall.Seconds()
		if w == 1 {
			base = rate
		}
		n := float64(len(batch)) / 100
		fmt.Printf("ghbactl: workers=%-3d %9.0f lookups/s  (%.2fx)  wall %-10v levels L1=%.1f%% L2=%.1f%% L3=%.1f%% L4=%.1f%%  RPCs=%d\n",
			w, rate, rate/base, wall.Round(time.Millisecond),
			float64(levels[1])/n, float64(levels[2])/n, float64(levels[3])/n, float64(levels[4])/n,
			pc.Messages())
	}
}

func exitIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "ghbactl:", err)
		os.Exit(1)
	}
}
