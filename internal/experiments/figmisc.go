package experiments

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"

	"ghba"
	"ghba/internal/analysis"
	"ghba/internal/bloom"
	"ghba/internal/core"
	"ghba/internal/trace"
)

// Fig11Row is one system size's migration cost across the three schemes.
type Fig11Row struct {
	N int
	// HBA is the replicas migrated when one MDS joins an HBA system: all N.
	HBA int
	// Hash is the measured migration count under modular-hash placement
	// within one group.
	Hash int
	// GHBA is the measured migration count of a G-HBA join.
	GHBA int
}

// Fig11 measures the replica-migration cost of adding one MDS at each
// system size. HBA ships every replica to the newcomer; hash placement
// re-targets most of a group's replicas; G-HBA migrates only the newcomer's
// fair share (N−M′)/(M′+1).
func Fig11(ns []int, seed int64) ([]Fig11Row, error) {
	rows := make([]Fig11Row, 0, len(ns))
	for _, n := range ns {
		m := analysis.PaperOptimalM(n)

		// HBA (groups of one): the newcomer receives all N existing
		// replicas. Counted at the newcomer, because the join report also
		// books the newcomer's own filter going to its ex-groupmate.
		hbaCfg := core.DefaultConfig(n, 1)
		hbaCfg.Node.ExpectedFiles = 1_000
		hbaCfg.Seed = seed
		hc, err := core.New(hbaCfg)
		if err != nil {
			return nil, err
		}
		newcomer, _, err := hc.AddMDS()
		if err != nil {
			return nil, err
		}
		hbaMigrated := hc.Node(newcomer).ReplicaCount()

		// Hash placement (Section 2.4): one group of M′ members holds the
		// N−M′ outside origins, origin o on member h(o) mod M′. A join
		// changes the modulus, and every origin whose slot changes migrates.
		groupSize := uint64(min(m, n))
		hashMigrated := 0
		for o := int(groupSize); o < n; o++ {
			if h := fnv1a64(o); h%groupSize != h%(groupSize+1) {
				hashMigrated++
			}
		}

		// G-HBA: measured from a real join. When N divides evenly into
		// groups of m, every group would be full and the join would
		// trigger a split; nudging the cap to m+1 keeps a slot open — the
		// paper's comparison point is the common light-weight join, not
		// the amortized-rare split (whose cost the prototype's Fig 15
		// covers).
		capM := m
		for ((n+capM-1)/capM)*capM == n {
			// Every group would sit exactly at the cap; widen until the
			// even partition leaves a slot somewhere.
			capM++
		}
		gCfg := core.DefaultConfig(n, capM)
		gCfg.Node.ExpectedFiles = 1_000
		gCfg.Seed = seed
		gc, err := core.New(gCfg)
		if err != nil {
			return nil, err
		}
		_, rep, err := gc.AddMDS()
		if err != nil {
			return nil, err
		}

		rows = append(rows, Fig11Row{N: n, HBA: hbaMigrated, Hash: hashMigrated, GHBA: rep.ReplicasMigrated})
	}
	return rows, nil
}

// fnv1a64 is FNV-1a over an origin ID's eight little-endian bytes.
func fnv1a64(x int) uint64 {
	h := fnv.New64a()
	h.Write(binary.LittleEndian.AppendUint64(nil, uint64(x)))
	return h.Sum64()
}

// FormatFig11 renders the migration comparison.
func FormatFig11(rows []Fig11Row) string {
	var b strings.Builder
	b.WriteString("Fig 11 — replicas migrated when one MDS joins\n")
	fmt.Fprintf(&b, "%6s  %6s  %6s  %6s\n", "N", "HBA", "hash", "G-HBA")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d  %6d  %6d  %6d\n", r.N, r.HBA, r.Hash, r.GHBA)
	}
	return b.String()
}

// Fig13Config parameterizes the per-level hit-rate study.
type Fig13Config struct {
	// Profile is the workload family.
	Profile trace.Profile
	// Ns are the system sizes (10..100 in the paper).
	Ns []int
	// Ops per system size.
	Ops int
	// FilesPerSubtrace sizes the workload's figTIF sub-traces.
	FilesPerSubtrace uint64
	// Seed drives all randomness.
	Seed int64
}

// DefaultFig13Config returns bench defaults.
func DefaultFig13Config() Fig13Config {
	return Fig13Config{
		Profile:          trace.HP(),
		Ns:               []int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100},
		Ops:              15_000,
		FilesPerSubtrace: 5_000,
		Seed:             1,
	}
}

// Fig13Row is the per-level service share at one system size.
type Fig13Row struct {
	N  int
	L1 float64 // fraction served at L1
	L2 float64
	L3 float64
	L4 float64
}

// Fig13 replays the workload on G-HBA at each system size and reports which
// level served each query. Replica updates are throttled (high XOR-delta
// threshold) so staleness grows with system size, pushing a small share of
// queries to L4 as in the paper.
func Fig13(cfg Fig13Config) ([]Fig13Row, error) {
	rows := make([]Fig13Row, 0, len(cfg.Ns))
	for _, n := range cfg.Ns {
		// Realistic staleness: updates propagate only after substantial
		// drift, so recently created files miss in remote replicas.
		c, gen, err := simulate(trace.Config{
			Profile:          cfg.Profile,
			TIF:              figTIF,
			FilesPerSubtrace: cfg.FilesPerSubtrace,
			Seed:             cfg.Seed,
		}, n, analysis.PaperOptimalM(n), func(ccfg *core.Config) { ccfg.UpdateThresholdBits = 2048 })
		if err != nil {
			return nil, err
		}
		sim := ghba.SimulationOver(c, cfg.Seed)
		if _, err := Replay(context.Background(), sim, gen, cfg.Ops, cfg.Ops); err != nil {
			return nil, err
		}
		fr := sim.LevelFractions()
		rows = append(rows, Fig13Row{N: n, L1: fr[1], L2: fr[2], L3: fr[3], L4: fr[4]})
	}
	return rows, nil
}

// FormatFig13 renders the stacked percentages.
func FormatFig13(rows []Fig13Row) string {
	var b strings.Builder
	b.WriteString("Fig 13 — % of queries served per level\n")
	fmt.Fprintf(&b, "%6s  %7s  %7s  %7s  %7s  %9s\n", "N", "L1", "L2", "L3", "L4", "≤L3 cum")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d  %6.1f%%  %6.1f%%  %6.1f%%  %6.1f%%  %8.1f%%\n",
			r.N, 100*r.L1, 100*r.L2, 100*r.L3, 100*r.L4, 100*(r.L1+r.L2+r.L3))
	}
	return b.String()
}

// Table5Row is one measured row of the memory-overhead table.
type Table5Row struct {
	N        int
	BFA8     float64
	BFA16    float64
	HBA      float64
	GHBA     float64
	PaperRow analysis.Table5Row
}

// Table5 measures the per-MDS filter memory of the four schemes on small
// clusters, normalized to BFA8, alongside the paper's analytic values.
func Table5(ns []int, filesPerMDS uint64, seed int64) ([]Table5Row, error) {
	rows := make([]Table5Row, 0, len(ns))
	for _, n := range ns {
		m := analysis.PaperOptimalM(n)
		totalFiles := filesPerMDS * uint64(n)

		// A plain Bloom filter array is N filters at a fixed ratio on every
		// server, with no LRU front end and no grouping.
		bfa8, err := bfaBytes(n, filesPerMDS, 8)
		if err != nil {
			return nil, err
		}
		bfa16, err := bfaBytes(n, filesPerMDS, 16)
		if err != nil {
			return nil, err
		}
		base := float64(bfa8)

		ccfg := core.DefaultConfig(n, m)
		ccfg.Node.ExpectedFiles = filesPerMDS
		ccfg.Node.BitsPerFile = 8
		ccfg.Node.LRUCapacity = filesPerMDS / 100
		if ccfg.Node.LRUCapacity == 0 {
			ccfg.Node.LRUCapacity = 16
		}
		ccfg.Seed = seed
		gc, err := core.New(ccfg)
		if err != nil {
			return nil, err
		}
		ccfg.MaxGroupSize = 1 // HBA: groups of one
		hc, err := core.New(ccfg)
		if err != nil {
			return nil, err
		}
		if err := populateN(ghba.SimulationOver(gc, seed), totalFiles); err != nil {
			return nil, err
		}
		if err := populateN(ghba.SimulationOver(hc, seed), totalFiles); err != nil {
			return nil, err
		}

		gf := gc.MeanFootprint()
		hf := hc.Footprint(0)
		// HBA has no replica-location array: with every replica on every
		// server there is nothing to locate.
		hf.IDBFABytes = 0
		rows = append(rows, Table5Row{
			N:        n,
			BFA8:     1,
			BFA16:    float64(bfa16) / base,
			HBA:      float64(hf.Total()) / base,
			GHBA:     float64(gf.Total()) / base,
			PaperRow: analysis.Table5(n, m, 0.004),
		})
	}
	return rows, nil
}

// bfaBytes is the per-MDS footprint of a plain array of n filters sized for
// filesPerMDS at bitsPerFile (8 for BFA8, 16 for BFA16).
func bfaBytes(n int, filesPerMDS uint64, bitsPerFile float64) (uint64, error) {
	f, err := bloom.NewForCapacity(filesPerMDS, bitsPerFile)
	if err != nil {
		return 0, err
	}
	return uint64(n) * f.SizeBytes(), nil
}

// populateN fills a backend with count synthetic paths.
func populateN(sys ghba.Backend, count uint64) error {
	paths := make([]string, count)
	for i := range paths {
		paths[i] = fmt.Sprintf("/t5/f%d", i)
	}
	return sys.CreateAll(context.Background(), paths)
}

// FormatTable5 renders measured-versus-paper overhead.
func FormatTable5(rows []Table5Row) string {
	var b strings.Builder
	b.WriteString("Table 5 — relative memory overhead per MDS (normalized to BFA8)\n")
	fmt.Fprintf(&b, "%6s  %6s  %6s  %8s  %8s  %14s\n", "N", "BFA8", "BFA16", "HBA", "G-HBA", "paper G-HBA")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d  %6.2f  %6.2f  %8.4f  %8.4f  %14.4f\n",
			r.N, r.BFA8, r.BFA16, r.HBA, r.GHBA, r.PaperRow.GHBA)
	}
	return b.String()
}

// Tables34 renders the intensified trace statistics of Tables 3 and 4 from
// the analytic scaling (which reproduces the paper exactly) plus measured
// op-mix shares from a generated sample.
func Tables34(sampleOps int, seed int64) (string, error) {
	var b strings.Builder
	b.WriteString("Table 3 — scaled-up RES and INS traces\n")
	res := trace.RES().Scaled(trace.RES().PaperTIF)
	ins := trace.INS().Scaled(trace.INS().PaperTIF)
	fmt.Fprintf(&b, "%-16s  %12s  %12s\n", "", "RES (TIF=100)", "INS (TIF=30)")
	fmt.Fprintf(&b, "%-16s  %12d  %12d\n", "hosts", res.Hosts, ins.Hosts)
	fmt.Fprintf(&b, "%-16s  %12d  %12d\n", "users", res.Users, ins.Users)
	fmt.Fprintf(&b, "%-16s  %12.1f  %12.2f\n", "open (million)", res.OpenM, ins.OpenM)
	fmt.Fprintf(&b, "%-16s  %12.1f  %12.2f\n", "close (million)", res.CloseM, ins.CloseM)
	fmt.Fprintf(&b, "%-16s  %12.1f  %12.2f\n", "stat (million)", res.StatM, ins.StatM)

	b.WriteString("\nTable 4 — scaled-up HP traces\n")
	hp1 := trace.HP().Scaled(1)
	hp40 := trace.HP().Scaled(40)
	fmt.Fprintf(&b, "%-24s  %10s  %10s\n", "", "original", "TIF=40")
	fmt.Fprintf(&b, "%-24s  %10.1f  %10.0f\n", "requests (million)", hp1.RequestsM, hp40.RequestsM)
	fmt.Fprintf(&b, "%-24s  %10d  %10d\n", "active users", hp1.ActiveUsers, hp40.ActiveUsers)
	fmt.Fprintf(&b, "%-24s  %10d  %10d\n", "user accounts", hp1.UserAccounts, hp40.UserAccounts)
	fmt.Fprintf(&b, "%-24s  %10.3f  %10.2f\n", "active files (million)", hp1.ActiveFilesM, hp40.ActiveFilesM)
	fmt.Fprintf(&b, "%-24s  %10.1f  %10.1f\n", "total files (million)", hp1.TotalFilesM, hp40.TotalFilesM)

	b.WriteString("\nMeasured generator op mix (sampled)\n")
	for _, p := range trace.Profiles() {
		gen, err := trace.NewGenerator(trace.Config{Profile: p, TIF: 2, Seed: seed})
		if err != nil {
			return "", err
		}
		ms := trace.NewMeasuredStats()
		for i := 0; i < sampleOps; i++ {
			ms.Observe(gen.Next())
		}
		fmt.Fprintf(&b, "%-4s open=%.1f%% close=%.1f%% stat=%.1f%% create=%.1f%% delete=%.1f%%\n",
			p.Name,
			100*ms.OpFraction(trace.OpOpen), 100*ms.OpFraction(trace.OpClose),
			100*ms.OpFraction(trace.OpStat), 100*ms.OpFraction(trace.OpCreate),
			100*ms.OpFraction(trace.OpDelete))
	}
	return b.String(), nil
}
