package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"ghba"
	"ghba/internal/analysis"
	"ghba/internal/core"
	"ghba/internal/mds"
	"ghba/internal/simnet"
	"ghba/internal/trace"
)

// Fig6Config parameterizes the normalized-throughput sweep of Fig 6 (and,
// swept over N, the optimal-group-size study of Fig 7).
type Fig6Config struct {
	// Profile is the workload family.
	Profile trace.Profile
	// N is the MDS count (30 and 100 in the paper's Fig 6).
	N int
	// Ms are the candidate group sizes (1..15 in the paper).
	Ms []int
	// Ops is the number of operations replayed per candidate M.
	Ops int
	// TIF and FilesPerSubtrace size the workload.
	TIF              int
	FilesPerSubtrace uint64
	// MemoryBudgetBytes and VirtualReplicaBytes induce the disk spill that
	// penalizes small M (many replicas per MDS).
	MemoryBudgetBytes   uint64
	VirtualReplicaBytes uint64
	// MeanInterarrival sets the load; high load makes over-large groups
	// pay for their multicast fan-out in queueing delay.
	MeanInterarrival time.Duration
	// Seed drives all randomness.
	Seed int64
}

// DefaultFig6Config returns the laptop-scale defaults used by the bench
// harness. The memory budget admits about seven memory-resident replicas
// per MDS, so candidate group sizes below N/7 pay disk penalties, while the
// arrival rate makes group multicast fan-out expensive above the optimum.
func DefaultFig6Config(profile trace.Profile, n int) Fig6Config {
	ms := make([]int, 0, 15)
	for m := 1; m <= 15; m++ {
		ms = append(ms, m)
	}
	return Fig6Config{
		Profile:          profile,
		N:                n,
		Ms:               ms,
		Ops:              20_000,
		TIF:              2,
		FilesPerSubtrace: 10_000,
		// The replica working set is a fixed metadata population spread
		// over N servers, so the accounted per-replica size shrinks with
		// N; with this budget, groups below roughly the paper's optimum
		// spill to disk.
		MemoryBudgetBytes:   280 << 20,
		VirtualReplicaBytes: uint64(1200/n+8) << 20,
		// High enough aggregate load (scaling with the server count) that
		// the per-message CPU of group multicasts saturates members as M
		// grows — the paper's "higher network overheads and longer query
		// delays" penalty for over-large groups. Together with the disk
		// spill at small M this centers the Γ optimum in the paper's 5–9
		// range.
		MeanInterarrival: time.Duration(100_000/n) * time.Nanosecond,
		Seed:             1,
	}
}

// Fig6Row is one point of the Γ-versus-M curve.
type Fig6Row struct {
	M           int
	MeanLatency time.Duration
	Gamma       float64
}

// Fig6 measures normalized throughput Γ (Equation 2) for each candidate
// group size: a fresh G-HBA cluster per M, populated from the workload's
// namespace, replayed under load, with Γ = 1/(mean latency · (N−M)/M).
func Fig6(cfg Fig6Config) ([]Fig6Row, error) {
	rows := make([]Fig6Row, 0, len(cfg.Ms))
	for _, m := range cfg.Ms {
		if m < 1 || m > cfg.N {
			return nil, fmt.Errorf("experiments: M=%d outside [1,%d]", m, cfg.N)
		}
		mean, err := fig6Run(cfg, m)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig6Row{
			M:           m,
			MeanLatency: mean,
			Gamma:       analysis.NormalizedThroughput(mean, cfg.N, m),
		})
	}
	return rows, nil
}

func fig6Run(cfg Fig6Config, m int) (time.Duration, error) {
	gen, err := trace.NewGenerator(trace.Config{
		Profile:          cfg.Profile,
		TIF:              cfg.TIF,
		FilesPerSubtrace: cfg.FilesPerSubtrace,
		MeanInterarrival: cfg.MeanInterarrival,
		Seed:             cfg.Seed,
	})
	if err != nil {
		return 0, err
	}
	ccfg := clusterConfig(cfg.N, m, gen)
	ccfg.MemoryBudgetBytes = cfg.MemoryBudgetBytes
	ccfg.VirtualReplicaBytes = cfg.VirtualReplicaBytes
	ccfg.Seed = cfg.Seed
	cluster, err := core.New(ccfg)
	if err != nil {
		return 0, err
	}
	sim := ghba.SimulationOver(cluster, ccfg.Seed)
	if err := PopulateFromGenerator(sim, gen); err != nil {
		return 0, err
	}
	points, err := Replay(context.Background(), sim, gen, cfg.Ops, cfg.Ops)
	if err != nil {
		return 0, err
	}
	return points[len(points)-1].MeanLatency, nil
}

// clusterConfig sizes a simulation cluster for a generator's namespace.
func clusterConfig(n, m int, gen *trace.Generator) core.Config {
	files := gen.InitialFileCount()
	perMDS := files/uint64(n) + 1
	cfg := core.DefaultConfig(n, m)
	cfg.Node = mds.Config{
		ExpectedFiles:  perMDS * 2, // headroom for created files
		BitsPerFile:    16,
		LRUCapacity:    1024,
		LRUBitsPerFile: 16,
	}
	cfg.Cost = simnet.DefaultCostModel()
	// A probe of a spilled filter misses the page cache most of the time
	// (k scattered bit reads per filter); 0.9 models the hot-page residue.
	cfg.CacheHitRate = 0.9
	return cfg
}

// Fig7Config parameterizes the optimal-M-versus-N study.
type Fig7Config struct {
	// Profile is the workload family.
	Profile trace.Profile
	// Ns are the system sizes (10..200 in the paper).
	Ns []int
	// Ms are the candidate group sizes per N.
	Ms []int
	// Ops per candidate.
	Ops int
	// Seed drives all randomness.
	Seed int64
}

// DefaultFig7Config returns bench defaults. Candidate group sizes are
// capped at 15 like the paper's sweep.
func DefaultFig7Config(profile trace.Profile) Fig7Config {
	return Fig7Config{
		Profile: profile,
		Ns:      []int{10, 30, 60, 100},
		Ms:      []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15},
		Ops:     8_000,
		Seed:    1,
	}
}

// Fig7Row is one point of the optimal-M curve.
type Fig7Row struct {
	N        int
	OptimalM int
	PaperM   int
}

// Fig7 finds the Γ-maximizing group size for each system size. Memory
// budgets scale with N (larger deployments hold more metadata per server),
// keeping the spill/multicast tradeoff centered the way the paper's
// workloads do.
func Fig7(cfg Fig7Config) ([]Fig7Row, error) {
	rows := make([]Fig7Row, 0, len(cfg.Ns))
	for _, n := range cfg.Ns {
		f6 := DefaultFig6Config(cfg.Profile, n)
		f6.Ops = cfg.Ops
		f6.Seed = cfg.Seed
		f6.Ms = nil
		for _, m := range cfg.Ms {
			if m <= n {
				f6.Ms = append(f6.Ms, m)
			}
		}
		res, err := Fig6(f6)
		if err != nil {
			return nil, err
		}
		best := res[0]
		for _, r := range res[1:] {
			if r.Gamma > best.Gamma {
				best = r
			}
		}
		rows = append(rows, Fig7Row{N: n, OptimalM: best.M, PaperM: analysis.PaperOptimalM(n)})
	}
	return rows, nil
}

// FormatFig6 renders rows as an aligned table.
func FormatFig6(profile string, n int, rows []Fig6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 6 — normalized throughput Γ vs group size M (%s, N=%d)\n", profile, n)
	fmt.Fprintf(&b, "%4s  %14s  %10s\n", "M", "mean latency", "Γ")
	for _, r := range rows {
		fmt.Fprintf(&b, "%4d  %14v  %10.4f\n", r.M, r.MeanLatency.Round(10*time.Microsecond), r.Gamma)
	}
	return b.String()
}

// FormatFig7 renders rows as an aligned table.
func FormatFig7(profile string, rows []Fig7Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 7 — optimal group size M vs system size N (%s)\n", profile)
	fmt.Fprintf(&b, "%6s  %10s  %8s\n", "N", "optimal M", "paper M")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d  %10d  %8d\n", r.N, r.OptimalM, r.PaperM)
	}
	return b.String()
}
