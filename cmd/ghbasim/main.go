// Command ghbasim replays an intensified synthetic workload against a
// simulated G-HBA cluster — or, with -m 1, against the HBA baseline, which is
// the same engine with groups of one — and prints hit-rate, latency and
// message statistics.
//
//	ghbasim -trace HP -n 60 -m 7 -tif 4 -ops 100000
//	ghbasim -trace RES -n 100 -m 1 -mem-mb 500
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"ghba/internal/analysis"
	"ghba/internal/core"
	"ghba/internal/experiments"
	"ghba/internal/mds"
	"ghba/internal/trace"
)

func main() {
	var (
		traceName = flag.String("trace", "HP", "workload profile: HP, RES or INS")
		n         = flag.Int("n", 30, "number of metadata servers")
		m         = flag.Int("m", 0, "max group size (0 = paper optimum for n, 1 = the HBA baseline)")
		tif       = flag.Int("tif", 2, "trace intensifying factor")
		files     = flag.Uint64("files", 10_000, "files per sub-trace")
		ops       = flag.Int("ops", 50_000, "operations to replay")
		memMB     = flag.Uint64("mem-mb", 0, "per-MDS memory budget in MB (0 = unlimited)")
		virtMB    = flag.Uint64("virt-mb", 16, "accounted MB per replica at paper scale")
		seed      = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	profile, err := trace.ProfileByName(*traceName)
	exitIf(err)
	if *m == 0 {
		*m = analysis.PaperOptimalM(*n)
	}

	gen, err := trace.NewGenerator(trace.Config{
		Profile:          profile,
		TIF:              *tif,
		FilesPerSubtrace: *files,
		Seed:             *seed,
	})
	exitIf(err)

	perMDS := gen.InitialFileCount()/uint64(*n) + 1
	cfg := core.DefaultConfig(*n, *m)
	cfg.Node = mds.Config{
		ExpectedFiles:  perMDS * 2,
		BitsPerFile:    16,
		LRUCapacity:    1024,
		LRUBitsPerFile: 16,
	}
	cfg.MemoryBudgetBytes = *memMB << 20
	cfg.VirtualReplicaBytes = *virtMB << 20
	cfg.Seed = *seed

	c, err := core.New(cfg)
	exitIf(err)
	sys := experiments.CoreSystem(c)

	fmt.Printf("scheme=%s trace=%s N=%d M=%d TIF=%d files=%d ops=%d mem=%dMB\n",
		sys.Name(), profile.Name, *n, *m, *tif, gen.InitialFileCount(), *ops, *memMB)

	start := time.Now()
	exitIf(experiments.PopulateFromGenerator(sys, gen))
	fmt.Printf("populated %d files in %v\n", gen.InitialFileCount(), time.Since(start).Round(time.Millisecond))

	start = time.Now()
	points, err := experiments.Replay(context.Background(), sys, gen, *ops, *ops/10)
	exitIf(err)
	fmt.Printf("replayed %d ops in %v (wall)\n\n", *ops, time.Since(start).Round(time.Millisecond))
	for _, p := range points {
		fmt.Printf("  after %8d ops: mean latency %v\n", p.Ops, p.MeanLatency.Round(time.Microsecond))
	}
	fmt.Println()
	printStats(c)
}

func printStats(c *core.Cluster) {
	t := c.Tally()
	fmt.Printf("levels: L1=%.1f%% L2=%.1f%% L3=%.1f%% L4=%.1f%%\n",
		100*t.Fraction(1), 100*t.Fraction(2), 100*t.Fraction(3), 100*t.Fraction(4))
	fmt.Printf("groups=%d messages=%v\n", c.NumGroups(), c.Messages().Snapshot())
	f := c.MeanFootprint()
	fmt.Printf("mean footprint/MDS: local=%dB replicas=%dB lru=%dB idbfa=%dB\n",
		f.LocalFilterBytes, f.ReplicaBytes, f.LRUBytes, f.IDBFABytes)
}

func exitIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "ghbasim:", err)
		os.Exit(1)
	}
}
