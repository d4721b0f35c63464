package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"ghba"
	"ghba/internal/mds"
	"ghba/internal/proto"
)

// Fig14Config parameterizes the prototype latency study. The paper runs 60
// Linux nodes with M=7 on the HP trace scaled ×60; the in-process prototype
// keeps the topology and protocol but runs on loopback, so the series shape
// (G-HBA at or below HBA, the gap growing with load) is the reproduced
// quantity, not the millisecond values.
type Fig14Config struct {
	// N is the daemon count, M the G-HBA group size.
	N, M int
	// Ops and Interval shape the checkpoint series.
	Ops, Interval int
	// Files sizes the namespace.
	Files int
	// ResidentReplicaLimit and DiskPenalty emulate HBA's memory overload
	// (see internal/proto).
	ResidentReplicaLimit int
	DiskPenalty          time.Duration
	// Workers is the number of concurrent clients (load).
	Workers int
	// Seed drives placement and entry choice.
	Seed int64
}

// DefaultFig14Config returns bench defaults, scaled down from the paper's
// 60-node cluster to keep a laptop run short; pass a larger N to approach
// the paper's setup.
func DefaultFig14Config() Fig14Config {
	return Fig14Config{
		N:                    20,
		M:                    7,
		Ops:                  2_000,
		Interval:             500,
		Files:                4_000,
		ResidentReplicaLimit: 10,
		DiskPenalty:          2 * time.Millisecond,
		Workers:              4,
		Seed:                 1,
	}
}

// protoNodeConfig sizes prototype daemons for the experiment namespace.
func protoNodeConfig(files, n int) mds.Config {
	per := uint64(files/n) + 1
	return mds.Config{
		ExpectedFiles:  per * 2,
		BitsPerFile:    16,
		LRUCapacity:    512,
		LRUBitsPerFile: 16,
	}
}

// Fig14 measures prototype lookup latency versus operations for both
// schemes under concurrent load, over real TCP sockets.
func Fig14(cfg Fig14Config) ([]LatencySeries, error) {
	var out []LatencySeries
	// HBA is the same prototype with groups of one.
	for _, m := range []int{1, cfg.M} {
		series, err := fig14Run(cfg, m)
		if err != nil {
			return nil, err
		}
		out = append(out, series)
	}
	return out, nil
}

func fig14Run(cfg Fig14Config, m int) (LatencySeries, error) {
	node := protoNodeConfig(cfg.Files, cfg.N)
	tcp, err := ghba.StartPrototype(ghba.PrototypeConfig{
		Config: ghba.Config{
			NumMDS:              cfg.N,
			MaxGroupSize:        m,
			ExpectedFilesPerMDS: node.ExpectedFiles,
			LRUCapacity:         node.LRUCapacity,
			Seed:                cfg.Seed,
		},
		ResidentReplicaLimit: cfg.ResidentReplicaLimit,
		DiskPenalty:          cfg.DiskPenalty,
	})
	if err != nil {
		return LatencySeries{}, err
	}
	defer tcp.Close()

	ctx := context.Background()
	paths := make([]string, cfg.Files)
	for i := range paths {
		paths[i] = fmt.Sprintf("/hp/sub%d/f%d", i%4, i)
	}
	if err := tcp.CreateAll(ctx, paths); err != nil {
		return LatencySeries{}, err
	}

	// Concurrent clients issue lookups over the shared path population with
	// the skew the HP workload exhibits (repeat-heavy). LookupParallel hands
	// worker w the w-th contiguous chunk of the batch, so the chunks are laid
	// out one client after another.
	perWorker := cfg.Ops / cfg.Workers
	batch := make([]string, 0, perWorker*cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		for i := 0; i < perWorker; i++ {
			// Zipf-ish reuse: favor low indices.
			idx := (i * (w + 7)) % len(paths)
			if i%3 != 0 {
				idx %= 1 + len(paths)/10
			}
			batch = append(batch, paths[idx])
		}
	}
	results, err := ghba.LookupParallel(ctx, tcp, batch, cfg.Workers)
	if err != nil {
		return LatencySeries{}, err
	}

	// Fold the clients' i-th lookups together, the order they ran in.
	var (
		points   []Checkpoint
		sum      float64
		count    int
		interval = cfg.Interval
	)
	if interval <= 0 {
		interval = len(results)
	}
	for i := 0; i < perWorker; i++ {
		for w := 0; w < cfg.Workers; w++ {
			sum += float64(results[w*perWorker+i].Latency)
			count++
			if count%interval == 0 || count == len(results) {
				points = append(points, Checkpoint{Ops: count, MeanLatency: time.Duration(sum / float64(count))})
			}
		}
	}
	return LatencySeries{Scheme: schemeName(m), Points: points}, nil
}

// schemeName labels a prototype run by its group size: groups of one are the
// HBA baseline (core.Cluster.Name draws the same line for the simulator).
func schemeName(m int) string {
	if m == 1 {
		return "HBA"
	}
	return "G-HBA"
}

// FormatFig14 renders the prototype latency series.
func FormatFig14(cfg Fig14Config, series []LatencySeries) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 14 — prototype query latency (N=%d, M=%d, %d workers, real TCP)\n",
		cfg.N, cfg.M, cfg.Workers)
	for _, s := range series {
		fmt.Fprintf(&b, "%-6s: %s\n", s.Scheme, formatSeries(s.Points))
	}
	return b.String()
}

// Fig15Row is the cumulative message count after adding k nodes.
type Fig15Row struct {
	NewNodes int
	HBAMsgs  int
	GHBAMsgs int
}

// Fig15 charts the messages generated by MDS insertion on the prototype:
// both schemes start at the same size and add nodes one at a time over real
// RPCs, summing the protocol messages of each join's plan (replica moves,
// IDBFA multicasts, announcements, the newcomer's filter to every other
// group).
func Fig15(startN, m, adds int, seed int64) ([]Fig15Row, error) {
	nodeCfg := protoNodeConfig(2_000, startN)
	hbaCluster, err := proto.Start(proto.Options{N: startN, M: 1, Node: nodeCfg, Seed: seed})
	if err != nil {
		return nil, err
	}
	defer hbaCluster.Close()
	ghbaCluster, err := proto.Start(proto.Options{N: startN, M: m, Node: nodeCfg, Seed: seed})
	if err != nil {
		return nil, err
	}
	defer ghbaCluster.Close()

	rows := make([]Fig15Row, 0, adds)
	hbaTotal, ghbaTotal := 0, 0
	for k := 1; k <= adds; k++ {
		_, hm, err := hbaCluster.AddMDS(context.Background())
		if err != nil {
			return nil, err
		}
		hbaTotal += hm.Messages
		_, gm, err := ghbaCluster.AddMDS(context.Background())
		if err != nil {
			return nil, err
		}
		ghbaTotal += gm.Messages
		rows = append(rows, Fig15Row{NewNodes: k, HBAMsgs: hbaTotal, GHBAMsgs: ghbaTotal})
	}
	return rows, nil
}

// FormatFig15 renders the message-count comparison.
func FormatFig15(startN, m int, rows []Fig15Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 15 — cumulative messages when adding nodes (start N=%d, M=%d)\n", startN, m)
	fmt.Fprintf(&b, "%10s  %8s  %8s\n", "new nodes", "HBA", "G-HBA")
	for _, r := range rows {
		fmt.Fprintf(&b, "%10d  %8d  %8d\n", r.NewNodes, r.HBAMsgs, r.GHBAMsgs)
	}
	return b.String()
}
