// Command ghbactl replays a workload against a G-HBA cluster through the one
// client surface, ghba.Backend: it builds either backend — the in-process
// simulation or N MDS daemons on loopback TCP — populates a namespace,
// replays a mixed trace across parallel workers, and then sweeps ground truth
// against fresh lookups. Everything after construction is one code path.
//
//	ghbactl -backend sim -n 30 -m 0 -mix HP -ops 50000
//	ghbactl -n 20 -m 7 -files 10000 -ops 2000          # tcp is the default
//	ghbactl -mix 100:0:0 -ops 2000                      # lookups only
//	ghbactl -rpcbatch 256 -ops 5000                     # vectorized batch RPCs
//	ghbactl -m 1 -n 20 -add 5                           # the HBA baseline: groups of one
//
// The tcp backend's coordinator calls its daemons over pooled
// one-call-per-connection sockets (rpcnet.Pool).
//
// The exit status is 2 for a rejected flag or configuration, 1 when the run
// fails or the sweep finds a lost or wrongly homed file. The sim backend's
// latencies are simulated and queue-inclusive, so its mean is meaningful only
// with -workers 1 (see experiments.ReplayStats). Performance numbers come from
// the benchmark (bash bench/run.sh), not from here.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"ghba"
	"ghba/internal/experiments"
	"ghba/internal/trace"
)

// traceTIF is the number of disjoint sub-traces the namespace splits into.
const traceTIF = 2

func main() {
	err := run()
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "ghbactl:", err)
	var rejected *ghba.ConfigError
	if errors.As(err, &rejected) {
		os.Exit(2)
	}
	os.Exit(1)
}

// rejectf reports a flag value the CLI refuses in the facade's own error
// type, so main has one test for "rejected configuration".
func rejectf(flag, format string, args ...any) error {
	return &ghba.ConfigError{Field: "-" + flag, Reason: fmt.Sprintf(format, args...)}
}

func run() error {
	var (
		backend   = flag.String("backend", "tcp", "sim (in-process engine, simulated costs) or tcp (real daemons on loopback)")
		n         = flag.Int("n", 12, "number of metadata servers")
		m         = flag.Int("m", 4, "max group size (0 = the paper's optimum for n, 1 = the HBA baseline)")
		files     = flag.Int("files", 5_000, "initial namespace size")
		ops       = flag.Int("ops", 1_000, "operations to replay")
		mix       = flag.String("mix", "70:20:10", "workload: a profile (HP, RES, INS) or a lookup:create:delete ratio")
		workers   = flag.Int("workers", 8, "parallel replay workers")
		rpcBatch  = flag.Int("rpcbatch", 1, "ops per ApplyBatch vector (1 = a vector of one)")
		shipBatch = flag.Int("shipbatch", 1, "ship-queue drain batch (1 = ship at every threshold crossing)")
		adds      = flag.Int("add", 0, "MDS insertions to perform after the sweep")
		seed      = flag.Int64("seed", 1, "random seed")
		memMB     = flag.Uint64("mem-mb", 0, "sim: per-MDS replica memory budget in MB (0 = unlimited; tcp refuses it, see -resident)")
		resid     = flag.Int("resident", 0, "tcp: replicas fitting in a daemon's RAM (0 = unlimited)")
		penalty   = flag.Duration("disk-penalty", 0, "tcp: emulated disk cost when over the resident limit")
		timeout   = flag.Duration("call-timeout", 0, "tcp: per-RPC deadline (0 = library default, negative = none)")
	)
	flag.Parse()
	ctx := context.Background()

	profile, err := parseMix(*mix)
	if err != nil {
		return err
	}
	if *ops < 1 {
		return rejectf("ops", "must be ≥ 1, got %d", *ops)
	}
	if *rpcBatch < 1 {
		return rejectf("rpcbatch", "must be ≥ 1, got %d", *rpcBatch)
	}
	if *files < traceTIF {
		return rejectf("files", "must be ≥ %d, got %d", traceTIF, *files)
	}
	tcfg := trace.Config{
		Profile:          profile,
		TIF:              traceTIF,
		FilesPerSubtrace: uint64(*files / traceTIF),
		Seed:             *seed,
	}
	cfg := ghba.Config{
		NumMDS:       *n,
		MaxGroupSize: *m,
		// Headroom for created files; -n < 1 is the facade's to reject.
		ExpectedFilesPerMDS: uint64(*files/max(*n, 1))*2 + 16,
		MemoryBudgetBytes:   *memMB << 20,
		ShipBatch:           *shipBatch,
		Seed:                *seed,
	}

	// Either backend, plus its ground truth for the closing sweep; from here
	// on the two run the same code.
	var (
		b interface {
			ghba.Backend
			ghba.Reconfigurer // -add
		}
		homeOf func(path string) int
	)
	switch *backend {
	case "sim":
		sim, err := ghba.New(cfg)
		if err != nil {
			return err
		}
		b, homeOf = sim, sim.HomeOf
	case "tcp":
		tcp, err := ghba.StartPrototype(ghba.PrototypeConfig{
			Config:               cfg,
			ResidentReplicaLimit: *resid,
			DiskPenalty:          *penalty,
			CallTimeout:          *timeout,
		})
		if err != nil {
			return err
		}
		b, homeOf = tcp, tcp.HomeOf
	default:
		return rejectf("backend", "must be sim or tcp, got %q", *backend)
	}
	defer b.Close()

	gen, err := trace.NewGenerator(tcfg)
	if err != nil {
		return err
	}
	if err := experiments.PopulateFromGenerator(b, gen); err != nil {
		return fmt.Errorf("populating: %w", err)
	}
	fmt.Printf("ghbactl: %s backend, %d MDS, %d files; replaying %d ops (mix %s, %d workers, vectors of %d)\n",
		b.Name(), b.NumMDS(), b.FileCount(), *ops, *mix, *workers, *rpcBatch)

	before := b.LevelCounts()
	stats, err := experiments.ReplayParallel(ctx, b, tcfg, *ops, *workers, *rpcBatch)
	if err != nil {
		return err
	}
	after := b.LevelCounts()
	fmt.Printf("ghbactl: %d ops in %v: lookups=%d (mean latency %v) creates=%d deletes=%d (+%d missed)\n",
		stats.Ops, stats.Elapsed.Round(time.Millisecond), stats.Lookups,
		stats.MeanLookupLatency.Round(time.Microsecond), stats.Creates, stats.Deletes, stats.DeleteMisses)
	if stats.Lookups > 0 {
		nl := float64(stats.Lookups) / 100
		fmt.Printf("ghbactl: levels L1=%.1f%% L2=%.1f%% L3=%.1f%% L4=%.1f%%\n",
			float64(after[1]-before[1])/nl, float64(after[2]-before[2])/nl,
			float64(after[3]-before[3])/nl, float64(after[4]-before[4])/nl)
	}

	// Ground-truth sweep: every file that exists must be found, at its home,
	// by a fresh lookup. A lane mints at most one fresh index per record at
	// a stride of the lane count, so initial namespace + ops + workers
	// bounds every index the replay can have created.
	var live []string
	span := tcfg.FilesPerSubtrace + uint64(*ops+stats.Workers)
	for sub := 0; sub < tcfg.TIF; sub++ {
		for f := uint64(0); f < span; f++ {
			if p := trace.PathFor(sub, f); homeOf(p) >= 0 {
				live = append(live, p)
			}
		}
	}
	results, err := ghba.LookupParallel(ctx, b, live, *workers)
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	lost, wrong := 0, 0
	for i, res := range results {
		switch {
		case !res.Found:
			lost++
		case res.Home != homeOf(live[i]):
			wrong++
		}
	}
	fmt.Printf("ghbactl: sweep of %d of %d files: %d lost, %d wrong-home\n", len(live), b.FileCount(), lost, wrong)
	if lost > 0 || wrong > 0 || len(live) != b.FileCount() {
		return errors.New("sweep: lookups disagree with ground truth")
	}

	for k := 0; k < *adds; k++ {
		id, migrated, err := b.AddMDS(ctx)
		if err != nil {
			return fmt.Errorf("-add %d of %d: %w", k+1, *adds, err)
		}
		fmt.Printf("ghbactl: added MDS %d (%d replicas migrated)\n", id, migrated)
	}
	return nil
}

// parseMix resolves -mix: a published trace profile by name, or an explicit
// lookup:create:delete ratio.
func parseMix(s string) (trace.Profile, error) {
	if p, err := trace.ProfileByName(s); err == nil {
		return p, nil
	}
	var l, c, d float64
	if _, err := fmt.Sscanf(s, "%f:%f:%f", &l, &c, &d); err != nil {
		return trace.Profile{}, rejectf("mix", "%q is neither HP, RES, INS nor lookup:create:delete (e.g. 70:20:10)", s)
	}
	p, err := trace.MixProfile(l, c, d)
	if err != nil {
		return trace.Profile{}, rejectf("mix", "%v", err)
	}
	return p, nil
}
