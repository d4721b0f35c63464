// Trace replay: run an intensified HP-like workload (the paper's Section 4
// methodology — TIF sub-traces with disjoint namespaces replayed
// concurrently) against both G-HBA and the HBA baseline under a constrained
// memory budget, reproducing the headline effect of Figs 8–10: HBA's global
// replica array spills to disk and slows down, G-HBA's segment arrays stay
// memory resident.
//
//	go run ./examples/tracereplay
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"ghba/internal/core"
	"ghba/internal/experiments"
	"ghba/internal/mds"
	"ghba/internal/trace"
)

func main() {
	const (
		n     = 20
		m     = 5
		ops   = 30_000
		memMB = 160 // tight budget: HBA's 20 replicas × 24MB spill hard
	)
	profile := trace.HP()
	fmt.Printf("workload: %s ×TIF=2, %d MDSs, %dMB RAM per MDS\n\n",
		profile.Name, n, memMB)

	// The HBA baseline is the same engine with groups of one.
	for _, groupSize := range []int{1, m} {
		gen, err := trace.NewGenerator(trace.Config{
			Profile:          profile,
			TIF:              2,
			FilesPerSubtrace: 5_000,
			MeanInterarrival: 50 * time.Microsecond,
			Seed:             1,
		})
		if err != nil {
			log.Fatal(err)
		}

		cfg := core.DefaultConfig(n, groupSize)
		cfg.Node = mds.Config{
			ExpectedFiles:  gen.InitialFileCount()/n*2 + 16,
			BitsPerFile:    16,
			LRUCapacity:    1024,
			LRUBitsPerFile: 16,
		}
		cfg.MemoryBudgetBytes = memMB << 20
		cfg.VirtualReplicaBytes = 24 << 20
		cfg.CacheHitRate = 0.9
		cfg.Seed = 1

		c, err := core.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		sys := experiments.CoreSystem(c)

		if err := experiments.PopulateFromGenerator(sys, gen); err != nil {
			log.Fatal(err)
		}
		points, err := experiments.Replay(context.Background(), sys, gen, ops, ops/5)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6s", sys.Name())
		for _, p := range points {
			fmt.Printf("  %6dops→%-10v", p.Ops, p.MeanLatency.Round(10*time.Microsecond))
		}
		fmt.Println()
	}
	fmt.Println("\nG-HBA stays flat while HBA pays for its spilled replica array —")
	fmt.Println("the effect behind Figs 8–10 of the paper.")
}
