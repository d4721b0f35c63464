// Quickstart: build a simulated G-HBA metadata cluster through the unified
// Backend API, load a namespace, and watch the four-level lookup hierarchy
// resolve queries. Swapping ghba.New for ghba.StartPrototype runs the same
// code against real TCP daemons — as ghbactl -backend tcp does.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"ghba"
)

func main() {
	ctx := context.Background()

	// 30 metadata servers; the group size defaults to the paper's optimum
	// for this system size (M=6).
	sim, err := ghba.New(ghba.Config{
		NumMDS:              30,
		ExpectedFilesPerMDS: 10_000,
		Seed:                42,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sim.Close()
	fmt.Printf("cluster: %d MDSs in %d groups (backend %q)\n",
		sim.NumMDS(), sim.NumGroups(), sim.Name())

	// Load a namespace. CreateAll bulk-loads and synchronizes replicas.
	paths := make([]string, 0, 5_000)
	for d := 0; d < 50; d++ {
		for f := 0; f < 100; f++ {
			paths = append(paths, fmt.Sprintf("/home/user%d/file%d.dat", d, f))
		}
	}
	if err := sim.CreateAll(ctx, paths); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("namespace: %d files\n", sim.FileCount())

	// First lookup of a cold file typically resolves at L2 or L3; repeat
	// lookups hit the L1 LRU array.
	target := "/home/user7/file42.dat"
	for i := 1; i <= 3; i++ {
		res, err := sim.Lookup(ctx, target)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("lookup %d: home=MDS%-3d level=L%d latency=%v\n",
			i, res.Home, res.Level, res.Latency)
	}

	// Lookups of nonexistent files resolve definitively at L4 (global
	// multicast, no false negatives).
	miss, err := sim.Lookup(ctx, "/no/such/file")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("miss:     found=%v level=L%d\n", miss.Found, miss.Level)

	// Mixed mutations flow through Apply: create, find, delete.
	created, err := sim.Apply(ctx, ghba.Op{Kind: ghba.OpCreate, Path: "/tmp/scratch.dat"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("created /tmp/scratch.dat at MDS%d\n", created.Home)
	found, _ := sim.Lookup(ctx, "/tmp/scratch.dat")
	fmt.Printf("lookup after create: %v\n", found.Found)
	if _, err := sim.Apply(ctx, ghba.Op{Kind: ghba.OpDelete, Path: "/tmp/scratch.dat"}); err != nil {
		log.Fatal(err)
	}
	gone, _ := sim.Lookup(ctx, "/tmp/scratch.dat")
	fmt.Printf("lookup after delete: %v\n", gone.Found)

	// Replay a few thousand skewed lookups so the level statistics are
	// representative (hot files repeat, as real metadata traffic does).
	var total time.Duration
	const lookups = 5_000
	for i := 0; i < lookups; i++ {
		idx := i % len(paths)
		if i%3 != 0 {
			idx %= 200 // hot set
		}
		res, err := sim.Lookup(ctx, paths[idx])
		if err != nil {
			log.Fatal(err)
		}
		total += res.Latency
	}

	// Per-level service shares (the Fig 13 statistic).
	fr := sim.LevelFractions()
	fmt.Printf("levels: L1=%.1f%% L2=%.1f%% L3=%.1f%% L4=%.1f%%  mean=%v\n",
		100*fr[1], 100*fr[2], 100*fr[3], 100*fr[4], total/lookups)
}
