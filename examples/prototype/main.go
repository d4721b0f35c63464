// Prototype: one driver, two backends. The same measurement function runs
// first against the in-process simulation and then against a real TCP
// cluster of MDS daemons (the Section 5 prototype, scaled to laptop size) —
// the point of the unified ghba.Backend API. The TCP run exercises lookups,
// creates and deletes over actual sockets, ships XOR-delta replica updates
// on the wire, and measures the message cost of adding a server (the Fig 14
// / Fig 15 setup).
//
//	go run ./examples/prototype
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
	cfg := ghba.Config{
		NumMDS:              12,
		MaxGroupSize:        4,
		ExpectedFilesPerMDS: 2_000,
		Seed:                3,
	}

	sim, err := ghba.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	run(ctx, sim)
	fmt.Println()

	tcp, err := ghba.StartPrototype(ghba.PrototypeConfig{Config: cfg})
	if err != nil {
		log.Fatal(err)
	}
	run(ctx, tcp)
}

// run drives the identical workload against any backend: populate, serial
// lookups, parallel lookups, a burst of creates and deletes, and one MDS
// insertion.
func run(ctx context.Context, b ghba.Backend) {
	defer b.Close()

	paths := make([]string, 3_000)
	for i := range paths {
		paths[i] = fmt.Sprintf("/srv/share/d%d/f%d", i%31, i)
	}
	if err := b.CreateAll(ctx, paths); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d MDSs, %d files\n", b.Name(), b.NumMDS(), b.FileCount())

	// A few hundred serial lookups.
	levelsBefore := b.LevelCounts()
	for i := 0; i < 500; i++ {
		res, err := b.Lookup(ctx, paths[(i*13)%len(paths)])
		if err != nil {
			log.Fatal(err)
		}
		if !res.Found {
			log.Fatalf("lost %s", paths[(i*13)%len(paths)])
		}
	}
	levels := b.LevelCounts()
	fmt.Printf("%s: 500 lookups, levels L1=%d L2=%d L3=%d L4=%d\n",
		b.Name(), levels[1]-levelsBefore[1], levels[2]-levelsBefore[2],
		levels[3]-levelsBefore[3], levels[4]-levelsBefore[4])

	// The same batch through the concurrent driver: 8 workers, results
	// still in batch order.
	batch := make([]string, 500)
	for i := range batch {
		batch[i] = paths[(i*13)%len(paths)]
	}
	start := time.Now()
	results, err := ghba.LookupParallel(ctx, b, batch, 8)
	if err != nil {
		log.Fatal(err)
	}
	wall := time.Since(start)
	for i, res := range results {
		if !res.Found {
			log.Fatalf("parallel driver lost %s", batch[i])
		}
	}
	fmt.Printf("%s: %d parallel lookups (8 workers) in %v — %.0f lookups/s\n",
		b.Name(), len(results), wall.Round(time.Millisecond),
		float64(len(results))/wall.Seconds())

	// Mixed mutations through the same API: create a burst, delete half.
	ops := make([]ghba.Op, 0, 300)
	for i := 0; i < 200; i++ {
		ops = append(ops, ghba.Op{Kind: ghba.OpCreate, Path: fmt.Sprintf("/srv/new/f%d", i)})
	}
	for i := 0; i < 100; i++ {
		ops = append(ops, ghba.Op{Kind: ghba.OpDelete, Path: fmt.Sprintf("/srv/new/f%d", i*2)})
	}
	if _, err := ghba.ApplyParallel(ctx, b, ops, 4); err != nil {
		log.Fatal(err)
	}
	if err := b.Flush(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: after 200 creates and 100 deletes: %d files\n", b.Name(), b.FileCount())

	// The Fig 11 measurement: how many replicas one MDS insertion moves.
	if r, ok := b.(ghba.Reconfigurer); ok {
		id, migrated, err := r.AddMDS(ctx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: adding MDS %d migrated %d replicas\n", b.Name(), id, migrated)
	}
}
