// Command mdsd runs one prototype metadata-server daemon: an MDS node
// behind the rpcnet TCP protocol, the building block of the Section 5
// prototype (ghba.StartPrototype runs N of these servers in one process).
//
// The daemon speaks rpcnet's classic protocol — one call at a time per
// connection — which is all a coordinator (proto.Cluster, through an
// rpcnet.Pool per daemon) sends. The same listener still answers
// connections that open with the "GMX1" magic in the multiplexed framed
// protocol, because rpcnet.Serve does; only the benchmark's rpcnet rung
// dials that way.
//
// With -data the daemon is durable: mutations are write-ahead logged to the
// given directory and compacted into snapshots, and startup recovers
// whatever state a previous run — cleanly stopped or killed outright — left
// there. A corrupt log (interior damage, missing segments) refuses to start
// and exits non-zero rather than serving silently incomplete metadata; a
// torn tail from a mid-write crash is truncated and reported. Without
// -data the daemon is memory-only, as before.
//
// With -mem-mb the daemon runs the simulator's memory model: each probe of
// its segment array sleeps -disk-penalty times the share past the budget.
//
// On SIGINT/SIGTERM the daemon drains: the listener closes, in-flight
// requests finish (bounded by -drain-timeout), a final snapshot compacts
// the WAL, and only then does the process exit.
//
//	mdsd -id 0 -listen 127.0.0.1:7000
//	mdsd -id 1 -listen 127.0.0.1:7001 -files 100000 -bits 16
//	mdsd -id 3 -listen 127.0.0.1:7003 -mem-mb 64 -disk-penalty 2ms
//	mdsd -id 2 -listen 127.0.0.1:7002 -data /var/lib/mdsd/2 -wal-sync interval
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ghba/internal/mds"
	"ghba/internal/proto"
	"ghba/internal/wal"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		id      = flag.Int("id", 0, "MDS identifier")
		listen  = flag.String("listen", "127.0.0.1:0", "listen address")
		files   = flag.Uint64("files", 50_000, "expected files homed at this MDS")
		bits    = flag.Float64("bits", 16, "Bloom filter bits per file")
		memMB   = flag.Uint64("mem-mb", 0, "memory budget in MB for the segment array (0 = unlimited)")
		penalty = flag.Duration("disk-penalty", 0, "emulated disk cost of a probe of a fully spilled segment array")

		dataDir   = flag.String("data", "", "durability directory (WAL + snapshots); empty = memory-only")
		walSync   = flag.String("wal-sync", "always", "WAL fsync policy: always, interval or never")
		walEvery  = flag.Duration("wal-sync-interval", 0, "data-loss bound under -wal-sync interval (0 = 100ms)")
		snapEvery = flag.Int("snapshot-every", 0, "WAL records between snapshot compactions (0 = 4096, <0 disables)")
		drain     = flag.Duration("drain-timeout", 5*time.Second, "max wait for in-flight requests on shutdown")
	)
	flag.Parse()
	// Vet -wal-sync even without -data, so a typo is refused rather than
	// silently ignored.
	pol, err := wal.ParseSyncPolicy(*walSync)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mdsd:", err)
		return 2
	}

	cfg := mds.Config{
		ExpectedFiles:  *files,
		BitsPerFile:    *bits,
		LRUCapacity:    mds.LRUCapacityFor(*files),
		LRUBitsPerFile: *bits,
	}
	opts := proto.NodeServerOptions{
		MemoryBudgetBytes: *memMB << 20,
		DiskPenalty:       *penalty,
		SnapshotEvery:     *snapEvery,
	}

	var node *mds.Node
	if *dataDir == "" {
		node, err = mds.NewNode(*id, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mdsd:", err)
			return 1
		}
	} else {
		var (
			log  *wal.Log
			info mds.RecoveryInfo
		)
		node, log, info, err = mds.Recover(*id, cfg, *dataDir, wal.Options{Sync: pol, SyncEvery: *walEvery})
		if err != nil {
			fmt.Fprintf(os.Stderr, "mdsd: recovery from %s failed: %v\n", *dataDir, err)
			return 1
		}
		opts.WAL = log
		fmt.Printf("mdsd: recovered %d files from %s (snapshot seq %d, %d records replayed",
			info.Files, *dataDir, info.SnapshotSeq, info.Replayed)
		if info.Torn {
			fmt.Print(", torn tail truncated")
		}
		fmt.Println(")")
	}

	// Catch the stop signals before announcing the daemon: a SIGTERM sent
	// as soon as "serving" appears must drain, not kill the process.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	srv, err := proto.StartNode(node, *listen, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mdsd:", err)
		return 1
	}
	fmt.Printf("mdsd: MDS %d serving on %s (files=%d, bits/file=%.0f)\n",
		*id, srv.Addr(), *files, *bits)

	<-stop
	fmt.Println("mdsd: draining")
	// Drain for real: refuse new connections, wait for in-flight requests
	// (bounded), snapshot and close the WAL. A timeout means requests were
	// still running when the bound hit — report it and exit non-zero so
	// orchestration can tell a clean stop from a forced one.
	if err := srv.Shutdown(*drain); err != nil {
		fmt.Fprintln(os.Stderr, "mdsd: shutdown:", err)
		return 1
	}
	fmt.Println("mdsd: stopped")
	return 0
}
