package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"ghba"
	"ghba/internal/proto"
	"ghba/internal/trace"
)

// SoakConfig parameterizes the kill/restart soak: a durable TCP cluster
// replays a mixed workload while a chaos schedule crashes daemons with
// kill -9 semantics mid-stream. The heartbeat detector — never an explicit
// failover call — notices each crash and reconfigures the survivors, the
// victim then restarts from its write-ahead log and rejoins, and a final
// fixed-seed verification sweep checks every path the run ever touched
// against the coordinator's ground truth.
//
// The workload mix is soakMix, the daemons fsync every WAL append and
// compact at the library's one cadence: in-process kills keep the page
// cache, so no fsync policy changes what the verification can see.
type SoakConfig struct {
	// N is the daemon count, M the group size (1 is the HBA baseline).
	N, M int
	// Files is the initial namespace size.
	Files int
	// Ops is the total workload operation count across all workers.
	Ops int
	// Workers is the client goroutine count.
	Workers int
	// Kills is the number of kill → detect → failover → restart cycles.
	// The k-th strike lands once roughly (k+1)/(Kills+1) of the workload
	// has dispatched, so every crash is mid-replay, not before or after.
	Kills int
	// DataDir is the durability root (required — recovery needs a log).
	DataDir string
	// Seed drives placement, workload generation, entry choice and the
	// chaos schedule.
	Seed int64
}

// soakMix is the soak workload's lookup:create:delete weight ratio.
var soakMix = [3]float64{70, 20, 10}

func (cfg SoakConfig) withDefaults() SoakConfig {
	if cfg.N == 0 {
		cfg.N = 6
	}
	if cfg.M == 0 {
		cfg.M = 3
	}
	if cfg.Files == 0 {
		cfg.Files = 1_000
	}
	if cfg.Ops == 0 {
		cfg.Ops = 5_000
	}
	if cfg.Workers < 1 {
		cfg.Workers = 4
	}
	if cfg.Kills == 0 {
		cfg.Kills = 2
	}
	return cfg
}

// SoakResult reports one soak run. A run is healthy when Clean() holds:
// every kill was detected and failed over by the heartbeat detector, every
// victim recovered and rejoined, and the verification sweep found zero
// wrong-home, lost-file or phantom answers.
type SoakResult struct {
	Config SoakConfig
	// Ops is the number of workload operations dispatched; OpErrors how
	// many failed. Operations that race a crash window fail — the soak
	// verifies correctness of what the cluster answered, not 100%
	// availability during a kill -9.
	Ops, OpErrors int
	// Kills is the number of crashes injected; Failovers how many
	// reconfigurations the detector ran (they must match — the harness
	// never calls FailMDS itself).
	Kills     int
	Failovers uint64
	// Restarts collects each victim's recovery report, in kill order.
	Restarts []proto.RestartReport
	// ChaosErrors records chaos-schedule failures (a failover the detector
	// never ran, a restart that errored). Empty on a healthy run.
	ChaosErrors []string
	// Sweep is the verification sweep over every initial path plus every
	// path the workload dispatched: ground truth and a live lookup must
	// agree on each (Sweep.Clean).
	Sweep SweepStats
	// Invariants is ghba.Prototype.CheckInvariants after the sweep: layout,
	// replicas and namespace, checked on the daemons. Must be nil.
	Invariants error
	// Elapsed is the wall-clock length of the workload+chaos phase.
	Elapsed time.Duration
}

// Clean reports whether the run satisfied the soak invariants.
func (r SoakResult) Clean() bool {
	return r.Failovers == uint64(r.Kills) &&
		len(r.Restarts) == r.Kills &&
		len(r.ChaosErrors) == 0 &&
		r.Sweep.Clean() &&
		r.Invariants == nil
}

// Soak runs the kill/restart soak and returns its report. Errors are
// reserved for harness failures (cluster refused to start, populate
// failed); a run whose invariants broke returns a result with Clean()
// false, so callers can print the whole report before failing.
func Soak(cfg SoakConfig) (SoakResult, error) {
	cfg = cfg.withDefaults()
	if cfg.DataDir == "" {
		return SoakResult{}, fmt.Errorf("experiments: soak requires DataDir (recovery needs a log)")
	}
	if cfg.N < 2 {
		return SoakResult{}, fmt.Errorf("experiments: soak needs N ≥ 2 (a kill must leave survivors), got %d", cfg.N)
	}
	profile, err := trace.MixProfile(soakMix[0], soakMix[1], soakMix[2])
	if err != nil {
		return SoakResult{}, err
	}
	tcfg := trace.Config{
		Profile:          profile,
		TIF:              4,
		FilesPerSubtrace: uint64(cfg.Files) / 4,
		MeanInterarrival: 2 * time.Millisecond,
		Seed:             cfg.Seed,
	}

	tcp, err := ghba.StartPrototype(ghba.PrototypeConfig{
		Config: ghba.Config{
			NumMDS:              cfg.N,
			MaxGroupSize:        cfg.M,
			ExpectedFilesPerMDS: uint64(2*cfg.Files/cfg.N+1) * 2,
			BitsPerFile:         16,
			LRUCapacity:         512,
			Seed:                cfg.Seed,
		},
		DataDir: cfg.DataDir,
	})
	if err != nil {
		return SoakResult{}, err
	}
	defer tcp.Close()

	gen, err := trace.NewGenerator(tcfg)
	if err != nil {
		return SoakResult{}, err
	}
	var initial []string
	gen.EachInitialPath(func(p string) bool {
		initial = append(initial, p)
		return true
	})
	if err := tcp.CreateAll(context.Background(), initial); err != nil {
		return SoakResult{}, err
	}
	lanes, err := splitLanes(tcfg, cfg.Ops, cfg.Workers)
	if err != nil {
		return SoakResult{}, err
	}

	res := SoakResult{Config: cfg, Ops: cfg.Ops, Kills: cfg.Kills}
	det := tcp.StartDetector()
	var (
		dispatched atomic.Int64
		opErrors   atomic.Int64
		lanePaths  = make([][]string, cfg.Workers)
	)
	start := time.Now()

	// Chaos: strike points are spread across the workload by dispatch
	// progress, so each kill lands mid-replay whatever the machine speed.
	chaosDone := make(chan struct{})
	go func() {
		defer close(chaosDone)
		rng := rand.New(rand.NewSource(trace.DispatchSeed(cfg.Seed, 1<<20)))
		for k := 0; k < cfg.Kills; k++ {
			threshold := int64(cfg.Ops) * int64(k+1) / int64(cfg.Kills+1)
			for dispatched.Load() < threshold {
				time.Sleep(time.Millisecond)
			}
			ids := tcp.MDSIDs()
			victim := ids[rng.Intn(len(ids))]
			if err := tcp.KillMDS(victim); err != nil {
				res.ChaosErrors = append(res.ChaosErrors, fmt.Sprintf("kill %d: %v", k, err))
				continue
			}
			// The detector — not this harness — must notice the corpse and
			// run the failover.
			want := uint64(k + 1)
			deadline := time.Now().Add(30 * time.Second)
			for det.Failovers() < want && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if det.Failovers() < want {
				res.ChaosErrors = append(res.ChaosErrors,
					fmt.Sprintf("kill %d: detector never failed over MDS %d", k, victim))
				continue
			}
			rep, err := tcp.RestartMDS(context.Background(), victim)
			if err != nil {
				res.ChaosErrors = append(res.ChaosErrors, fmt.Sprintf("restart MDS %d: %v", victim, err))
				continue
			}
			res.Restarts = append(res.Restarts, rep)
		}
	}()

	// Workload: each worker owns one lane of the split trace and tolerates
	// per-op errors — the point is to keep the cluster under load across
	// crash windows. Every dispatched path is recorded for the sweep. The
	// observer never stops a lane, so Drive has no error to return.
	_ = ghba.Drive(context.Background(), tcp, cfg.Seed, lanes, ghba.Shape{}, func(w, _ int, ops []ghba.Op, _ []ghba.Result, err error) error {
		lanePaths[w] = append(lanePaths[w], ops[0].Path)
		if err != nil {
			opErrors.Add(1)
		}
		dispatched.Add(1)
		return nil
	})
	<-chaosDone
	det.Stop()
	res.Elapsed = time.Since(start)
	res.OpErrors = int(opErrors.Load())
	res.Failovers = det.Failovers()
	if err := tcp.Flush(context.Background()); err != nil {
		return res, fmt.Errorf("experiments: flushing after soak: %w", err)
	}

	// Verification sweep: ground truth versus a live lookup for every path
	// the run ever named. A fixed seed and sorted order, so reruns of a
	// seed ask the same questions of the same lanes.
	universe := make(map[string]struct{}, len(initial)+cfg.Ops)
	for _, p := range initial {
		universe[p] = struct{}{}
	}
	for _, lane := range lanePaths {
		for _, p := range lane {
			universe[p] = struct{}{}
		}
	}
	paths := make([]string, 0, len(universe))
	for p := range universe {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	res.Sweep = Sweep(context.Background(), tcp, paths, trace.DispatchSeed(cfg.Seed, 1<<21), cfg.Workers)
	res.Invariants = tcp.CheckInvariants()
	return res, nil
}

// FormatSoak renders the soak report like the figure banners.
func FormatSoak(r SoakResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Kill/restart soak — %s N=%d M=%d files=%d ops=%d workers=%d kills=%d wal-sync=always seed=%d\n",
		schemeName(r.Config.M), r.Config.N, r.Config.M, r.Config.Files, r.Config.Ops,
		r.Config.Workers, r.Config.Kills, r.Config.Seed)
	fmt.Fprintf(&b, "  workload       %d ops in %v (%d failed during crash windows)\n",
		r.Ops, r.Elapsed.Round(time.Millisecond), r.OpErrors)
	fmt.Fprintf(&b, "  failovers      %d detector-driven (kills injected: %d)\n", r.Failovers, r.Kills)
	for _, rep := range r.Restarts {
		fmt.Fprintf(&b, "  restart MDS %d  recovered %d files (%d replayed), reclaimed %d, dropped %d, tail lost %d\n",
			rep.ID, rep.Recovery.Files, rep.Recovery.Replayed, rep.FilesReclaimed, rep.FilesDropped, rep.TailLost)
	}
	for _, e := range r.ChaosErrors {
		fmt.Fprintf(&b, "  CHAOS ERROR    %s\n", e)
	}
	fmt.Fprintf(&b, "  sweep          %d paths: %d lost, %d wrong-home, %d phantom, %d errors\n",
		r.Sweep.Paths, r.Sweep.Lost, r.Sweep.WrongHome, r.Sweep.Phantom, r.Sweep.Errors)
	if r.Invariants != nil {
		fmt.Fprintf(&b, "  INVARIANTS     %v\n", r.Invariants)
	}
	if r.Clean() {
		fmt.Fprintf(&b, "  verdict        CLEAN\n")
	} else {
		fmt.Fprintf(&b, "  verdict        FAILED\n")
	}
	return b.String()
}
