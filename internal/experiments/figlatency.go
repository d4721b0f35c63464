package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"ghba"
	"ghba/internal/analysis"
	"ghba/internal/core"
	"ghba/internal/trace"
)

// LatencyFigConfig parameterizes Figs 8, 9 and 10: average lookup latency
// versus operation count for HBA and G-HBA across memory budgets.
type LatencyFigConfig struct {
	// Figure is 8 (HP), 9 (RES) or 10 (INS) — informational.
	Figure int
	// Profile is the workload family.
	Profile trace.Profile
	// N is the MDS count, M the G-HBA group size.
	N, M int
	// MemBudgetsMB are the per-MDS RAM budgets compared (the paper uses
	// {1200, 800, 500} for HP, {800, 500, 300} for RES, {900, 600, 400}
	// for INS).
	MemBudgetsMB []uint64
	// VirtualReplicaMB is the paper-scale accounted size of one replica.
	VirtualReplicaMB uint64
	// Ops and Interval shape the checkpoint series.
	Ops, Interval int
	// FilesPerSubtrace sizes the workload's figTIF sub-traces.
	FilesPerSubtrace uint64
	// Seed drives all randomness.
	Seed int64
}

const (
	// latencyFigWarmup operations are replayed before measurement starts,
	// so the L1 arrays begin warm (the paper's traces are mid-stream
	// snapshots, not cold starts).
	latencyFigWarmup = 15_000
	// latencyFigInterarrival sets the load of Figs 8–10, slightly above the
	// service rate of a heavily spilled HBA array: the smallest-memory HBA
	// configuration saturates and its average latency climbs with operation
	// count, as in the paper's curves, while the larger budgets and G-HBA
	// stay comfortably stable.
	latencyFigInterarrival = 25 * time.Microsecond
)

// DefaultLatencyFigConfig returns bench defaults for the given figure
// number (8, 9 or 10), using the paper's memory ladder for that trace.
func DefaultLatencyFigConfig(figure int) LatencyFigConfig {
	cfg := LatencyFigConfig{
		Figure:           figure,
		N:                60,
		M:                7, // the prototype's optimum at N=60
		VirtualReplicaMB: 16,
		Ops:              60_000,
		Interval:         10_000,
		FilesPerSubtrace: 10_000,
		Seed:             1,
	}
	switch figure {
	case 9:
		cfg.Profile = trace.RES()
		cfg.MemBudgetsMB = []uint64{800, 500, 300}
	case 10:
		cfg.Profile = trace.INS()
		cfg.MemBudgetsMB = []uint64{900, 600, 400}
	default:
		cfg.Figure = 8
		cfg.Profile = trace.HP()
		cfg.MemBudgetsMB = []uint64{1200, 800, 500}
	}
	return cfg
}

// LatencySeries is one scheme × memory-budget curve.
type LatencySeries struct {
	Scheme      string
	MemBudgetMB uint64
	Points      []Checkpoint
}

// LatencyFig runs one of Figs 8–10: for every memory budget, both schemes
// replay the same intensified workload and report running mean latency.
func LatencyFig(cfg LatencyFigConfig) ([]LatencySeries, error) {
	var out []LatencySeries
	for _, memMB := range cfg.MemBudgetsMB {
		// HBA is the same engine with groups of one.
		for _, m := range []int{1, cfg.M} {
			c, gen, err := simulate(trace.Config{
				Profile:          cfg.Profile,
				TIF:              figTIF,
				FilesPerSubtrace: cfg.FilesPerSubtrace,
				MeanInterarrival: latencyFigInterarrival,
				Seed:             cfg.Seed,
			}, cfg.N, m, func(ccfg *core.Config) {
				ccfg.MemoryBudgetBytes = memMB << 20
				ccfg.VirtualReplicaBytes = cfg.VirtualReplicaMB << 20
			})
			if err != nil {
				return nil, err
			}
			sys := ghba.SimulationOver(c, cfg.Seed)
			if _, err := Replay(context.Background(), sys, gen, latencyFigWarmup, latencyFigWarmup); err != nil {
				return nil, err
			}
			points, err := Replay(context.Background(), sys, gen, cfg.Ops, cfg.Interval)
			if err != nil {
				return nil, err
			}
			out = append(out, LatencySeries{Scheme: c.Name(), MemBudgetMB: memMB, Points: points})
		}
	}
	return out, nil
}

// FormatLatencyFig renders the series like the paper's figure legends.
func FormatLatencyFig(cfg LatencyFigConfig, series []LatencySeries) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig %d — average latency vs operations (%s, N=%d, M=%d)\n",
		cfg.Figure, cfg.Profile.Name, cfg.N, cfg.M)
	for _, s := range series {
		fmt.Fprintf(&b, "%-6s (%4dMB): %s\n", s.Scheme, s.MemBudgetMB, formatSeries(s.Points))
	}
	return b.String()
}

// Fig12Config parameterizes the stale-replica update-latency comparison.
// G-HBA runs at the paper's optimal group size for N,
// analysis.PaperOptimalM(N).
type Fig12Config struct {
	// N is the MDS count.
	N int
	// Updates is the number of update requests measured.
	Updates int
	// FilesPerSubtrace sizes the namespace.
	FilesPerSubtrace uint64
	// Seed drives all randomness.
	Seed int64
}

// Fig 12's per-MDS memory budget and the accounted size of one replica,
// which price the apply-side disk writes of an update.
const (
	fig12MemoryBudget   = 500 << 20
	fig12VirtualReplica = 16 << 20
)

// DefaultFig12Config returns bench defaults for the N cell of Fig 12.
func DefaultFig12Config(n int) Fig12Config {
	return Fig12Config{
		N:                n,
		Updates:          90,
		FilesPerSubtrace: 5_000,
		Seed:             1,
	}
}

// Fig12Row is the measured mean update latency of one scheme.
type Fig12Row struct {
	Scheme      string
	N, M        int
	MeanLatency time.Duration
}

// Fig12 measures the latency of updating stale replicas: each update
// mutates a home MDS's file set and pushes the fresh filter — to one holder
// per group in G-HBA, to every MDS in HBA. An update's price is the
// multicast plus the apply-side disk cost, and the initial namespace depends
// on the file count alone, so the workload profile cannot move it: the
// figure has no profile axis, and HP only builds the namespace.
func Fig12(cfg Fig12Config) ([]Fig12Row, error) {
	// HBA is the same engine with groups of one. The budget prices the
	// apply-side disk writes; only manual pushes ship.
	ghbaM := analysis.PaperOptimalM(cfg.N)
	var clusters [2]*core.Cluster // G-HBA, HBA
	for i, m := range []int{ghbaM, 1} {
		c, _, err := simulate(trace.Config{
			Profile:          trace.HP(),
			TIF:              1,
			FilesPerSubtrace: cfg.FilesPerSubtrace,
			Seed:             cfg.Seed,
		}, cfg.N, m, func(ccfg *core.Config) {
			ccfg.MemoryBudgetBytes = fig12MemoryBudget
			ccfg.VirtualReplicaBytes = fig12VirtualReplica
			ccfg.UpdateThresholdBits = 1 << 30
		})
		if err != nil {
			return nil, err
		}
		clusters[i] = c
	}
	ghbaCluster, hbaCluster := clusters[0], clusters[1]

	// One equally seeded RNG per scheme, so both home every update on the
	// same server.
	ghbaRNG := rand.New(rand.NewSource(cfg.Seed))
	hbaRNG := rand.New(rand.NewSource(cfg.Seed))
	var ghbaSum, hbaSum time.Duration
	for i := 0; i < cfg.Updates; i++ {
		path := fmt.Sprintf("/updates/batch%d", i)
		create := trace.Record{Op: trace.OpCreate, Path: path}
		ghbaSum += ghbaCluster.PushUpdate(ghbaCluster.ApplyWith(ghbaRNG, create).Home)
		hbaSum += hbaCluster.PushUpdate(hbaCluster.ApplyWith(hbaRNG, create).Home)
	}
	n := time.Duration(cfg.Updates)
	return []Fig12Row{
		{Scheme: "HBA", N: cfg.N, M: ghbaM, MeanLatency: hbaSum / n},
		{Scheme: "G-HBA", N: cfg.N, M: ghbaM, MeanLatency: ghbaSum / n},
	}, nil
}

// FormatFig12 renders rows for several N cells.
func FormatFig12(rows []Fig12Row) string {
	var b strings.Builder
	b.WriteString("Fig 12 — latency of updating stale replicas\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s N=%-4d M=%-3d mean=%v\n",
			r.Scheme, r.N, r.M, r.MeanLatency.Round(10*time.Microsecond))
	}
	return b.String()
}
