package experiments

import (
	"context"
	"fmt"
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
	// Warmup operations are replayed before measurement starts, so the
	// L1 arrays begin warm (the paper's traces are mid-stream snapshots,
	// not cold starts).
	Warmup int
	// TIF and FilesPerSubtrace size the workload.
	TIF              int
	FilesPerSubtrace uint64
	// MeanInterarrival sets the load.
	MeanInterarrival time.Duration
	// Seed drives all randomness.
	Seed int64
}

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
		Warmup:           15_000,
		TIF:              2,
		FilesPerSubtrace: 10_000,
		// Slightly above the service rate of a heavily spilled HBA array:
		// the smallest-memory HBA configuration saturates and its average
		// latency climbs with operation count, as in the paper's curves,
		// while the larger budgets and G-HBA stay comfortably stable.
		MeanInterarrival: 25 * time.Microsecond,
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

// Final returns the last checkpoint's mean latency (zero when empty).
func (s LatencySeries) Final() time.Duration {
	if len(s.Points) == 0 {
		return 0
	}
	return s.Points[len(s.Points)-1].MeanLatency
}

// LatencyFig runs one of Figs 8–10: for every memory budget, both schemes
// replay the same intensified workload and report running mean latency.
func LatencyFig(cfg LatencyFigConfig) ([]LatencySeries, error) {
	var out []LatencySeries
	for _, memMB := range cfg.MemBudgetsMB {
		// HBA is the same engine with groups of one.
		for _, m := range []int{1, cfg.M} {
			gen, err := trace.NewGenerator(trace.Config{
				Profile:          cfg.Profile,
				TIF:              cfg.TIF,
				FilesPerSubtrace: cfg.FilesPerSubtrace,
				MeanInterarrival: cfg.MeanInterarrival,
				Seed:             cfg.Seed,
			})
			if err != nil {
				return nil, err
			}
			ccfg := clusterConfig(cfg.N, m, gen)
			ccfg.MemoryBudgetBytes = memMB << 20
			ccfg.VirtualReplicaBytes = cfg.VirtualReplicaMB << 20
			ccfg.Seed = cfg.Seed

			c, err := core.New(ccfg)
			if err != nil {
				return nil, err
			}
			sys := ghba.SimulationOver(c, ccfg.Seed)
			if err := PopulateFromGenerator(sys, gen); err != nil {
				return nil, err
			}
			if cfg.Warmup > 0 {
				if _, err := Replay(context.Background(), sys, gen, cfg.Warmup, cfg.Warmup); err != nil {
					return nil, err
				}
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
type Fig12Config struct {
	// Profile is the workload family.
	Profile trace.Profile
	// N is the MDS count, M the G-HBA group size.
	N, M int
	// Updates is the number of update requests measured.
	Updates int
	// MemBudgetMB and VirtualReplicaMB control apply-side disk costs.
	MemBudgetMB      uint64
	VirtualReplicaMB uint64
	// FilesPerSubtrace sizes the namespace.
	FilesPerSubtrace uint64
	// Seed drives all randomness.
	Seed int64
}

// DefaultFig12Config returns bench defaults for one (profile, N) cell of
// Fig 12, using the paper's per-N optimal group size.
func DefaultFig12Config(profile trace.Profile, n int) Fig12Config {
	return Fig12Config{
		Profile:          profile,
		N:                n,
		M:                analysis.PaperOptimalM(n),
		Updates:          90,
		MemBudgetMB:      500,
		VirtualReplicaMB: 16,
		FilesPerSubtrace: 5_000,
		Seed:             1,
	}
}

// Fig12Row is the measured mean update latency of one scheme.
type Fig12Row struct {
	Scheme      string
	Profile     string
	N, M        int
	MeanLatency time.Duration
}

// Fig12 measures the latency of updating stale replicas: each update
// mutates a home MDS's file set and pushes the fresh filter — to one holder
// per group in G-HBA, to every MDS in HBA.
func Fig12(cfg Fig12Config) ([]Fig12Row, error) {
	gen, err := trace.NewGenerator(trace.Config{
		Profile:          cfg.Profile,
		TIF:              1,
		FilesPerSubtrace: cfg.FilesPerSubtrace,
		Seed:             cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	ccfg := clusterConfig(cfg.N, cfg.M, gen)
	ccfg.MemoryBudgetBytes = cfg.MemBudgetMB << 20
	ccfg.VirtualReplicaBytes = cfg.VirtualReplicaMB << 20
	ccfg.UpdateThresholdBits = 1 << 30 // manual pushes only
	ccfg.Seed = cfg.Seed

	ghbaCluster, err := core.New(ccfg)
	if err != nil {
		return nil, err
	}
	ccfg.MaxGroupSize = 1 // HBA: groups of one
	hbaCluster, err := core.New(ccfg)
	if err != nil {
		return nil, err
	}
	if err := PopulateFromGenerator(ghba.SimulationOver(ghbaCluster, ccfg.Seed), gen); err != nil {
		return nil, err
	}
	gen2, err := trace.NewGenerator(trace.Config{
		Profile:          cfg.Profile,
		TIF:              1,
		FilesPerSubtrace: cfg.FilesPerSubtrace,
		Seed:             cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	if err := PopulateFromGenerator(ghba.SimulationOver(hbaCluster, ccfg.Seed), gen2); err != nil {
		return nil, err
	}

	var ghbaSum, hbaSum time.Duration
	for i := 0; i < cfg.Updates; i++ {
		path := fmt.Sprintf("/updates/batch%d", i)
		create := trace.Record{Op: trace.OpCreate, Path: path}
		ghbaSum += ghbaCluster.PushUpdate(ghbaCluster.Apply(create).Home)
		hbaSum += hbaCluster.PushUpdate(hbaCluster.Apply(create).Home)
	}
	n := time.Duration(cfg.Updates)
	return []Fig12Row{
		{Scheme: "HBA", Profile: cfg.Profile.Name, N: cfg.N, M: cfg.M, MeanLatency: hbaSum / n},
		{Scheme: "G-HBA", Profile: cfg.Profile.Name, N: cfg.N, M: cfg.M, MeanLatency: ghbaSum / n},
	}, nil
}

// FormatFig12 renders rows for several (profile, N) cells.
func FormatFig12(rows []Fig12Row) string {
	var b strings.Builder
	b.WriteString("Fig 12 — latency of updating stale replicas\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %-4s N=%-4d M=%-3d mean=%v\n",
			r.Scheme, r.Profile, r.N, r.M, r.MeanLatency.Round(10*time.Microsecond))
	}
	return b.String()
}
