package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"ghba"
	"ghba/internal/core"
	"ghba/internal/trace"
)

// AblationL1Row compares G-HBA with and without the L1 LRU arrays.
type AblationL1Row struct {
	L1Enabled   bool
	MeanLatency time.Duration
	L1Share     float64 // fraction of queries served at L1
	GroupShare  float64 // fraction served within the group (≤L3)
}

// AblationL1 quantifies how much of G-HBA's performance comes from the
// replicated LRU arrays exploiting temporal locality. Without L1, every
// lookup starts at the segment array and far more queries multicast.
func AblationL1(n, m, ops int, seed int64) ([]AblationL1Row, error) {
	rows := make([]AblationL1Row, 0, 2)
	for _, enabled := range []bool{true, false} {
		gen, err := trace.NewGenerator(trace.Config{
			Profile:          trace.HP(),
			TIF:              2,
			FilesPerSubtrace: 5_000,
			Seed:             seed,
		})
		if err != nil {
			return nil, err
		}
		cfg := clusterConfig(n, m, gen)
		cfg.Seed = seed
		cfg.DisableL1 = !enabled
		cluster, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		sim := ghba.SimulationOver(cluster, seed)
		if err := PopulateFromGenerator(sim, gen); err != nil {
			return nil, err
		}
		points, err := Replay(context.Background(), sim, gen, ops, ops)
		if err != nil {
			return nil, err
		}
		t := cluster.Tally()
		rows = append(rows, AblationL1Row{
			L1Enabled:   enabled,
			MeanLatency: points[len(points)-1].MeanLatency,
			L1Share:     t.Fraction(1),
			GroupShare:  t.CumulativeFraction(3),
		})
	}
	return rows, nil
}

// FormatAblationL1 renders the comparison.
func FormatAblationL1(rows []AblationL1Row) string {
	var b strings.Builder
	b.WriteString("Ablation — L1 LRU arrays on/off\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "L1=%-5v mean=%-12v L1-share=%.1f%% within-group=%.1f%%\n",
			r.L1Enabled, r.MeanLatency.Round(10*time.Microsecond),
			100*r.L1Share, 100*r.GroupShare)
	}
	return b.String()
}

// AblationUpdateRow reports the staleness/traffic tradeoff at one XOR-delta
// threshold.
type AblationUpdateRow struct {
	ThresholdBits  uint64
	UpdateMessages uint64
	L4Share        float64 // staleness symptom: queries escaping to L4
}

// AblationUpdateThreshold quantifies what the XOR-delta ship threshold
// trades: replica-update traffic against staleness. A low threshold pushes
// updates eagerly (more messages, fewer stale replicas); a high threshold
// batches aggressively and lets recently created files fall through to the
// global multicast.
func AblationUpdateThreshold(n, m, ops int, thresholds []uint64, seed int64) ([]AblationUpdateRow, error) {
	rows := make([]AblationUpdateRow, 0, len(thresholds))
	for _, th := range thresholds {
		gen, err := trace.NewGenerator(trace.Config{
			Profile:          trace.HP(),
			TIF:              2,
			FilesPerSubtrace: 5_000,
			Seed:             seed,
		})
		if err != nil {
			return nil, err
		}
		cfg := clusterConfig(n, m, gen)
		cfg.Seed = seed
		cfg.UpdateThresholdBits = th
		cluster, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		sim := ghba.SimulationOver(cluster, seed)
		if err := PopulateFromGenerator(sim, gen); err != nil {
			return nil, err
		}
		if _, err := Replay(context.Background(), sim, gen, ops, ops); err != nil {
			return nil, err
		}
		rows = append(rows, AblationUpdateRow{
			ThresholdBits:  th,
			UpdateMessages: sim.ReplicaUpdates(),
			L4Share:        sim.LevelFractions()[4],
		})
	}
	return rows, nil
}

// FormatAblationUpdate renders the sweep.
func FormatAblationUpdate(rows []AblationUpdateRow) string {
	var b strings.Builder
	b.WriteString("Ablation — XOR-delta update threshold\n")
	fmt.Fprintf(&b, "%12s  %14s  %8s\n", "threshold", "update msgs", "L4 share")
	for _, r := range rows {
		fmt.Fprintf(&b, "%12d  %14d  %7.2f%%\n", r.ThresholdBits, r.UpdateMessages, 100*r.L4Share)
	}
	return b.String()
}
