// Dynamic scaling: grow and shrink a G-HBA cluster under a live namespace,
// exercising the paper's light-weight migration, group splitting and group
// merging (Sections 3.1–3.2) while verifying that every file stays
// resolvable and every group keeps a global mirror image.
//
//	go run ./examples/dynamicscale
package main

import (
	"context"
	"fmt"
	"log"

	"ghba"
)

func main() {
	sim, err := ghba.New(ghba.Config{
		NumMDS:              8,
		MaxGroupSize:        4,
		ExpectedFilesPerMDS: 5_000,
		Seed:                7,
	})
	if err != nil {
		log.Fatal(err)
	}

	paths := make([]string, 3_000)
	for i := range paths {
		paths[i] = fmt.Sprintf("/proj/build%d/obj%d.o", i%20, i)
	}
	if err := sim.CreateAll(context.Background(), paths); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("start: %d MDSs, %d groups, %d files\n",
		sim.NumMDS(), sim.NumGroups(), sim.FileCount())

	// Grow by five servers. The 4th addition finds every group full and
	// triggers a split.
	for i := 0; i < 5; i++ {
		id, migrated, err := sim.AddMDS(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("added MDS %-3d migrated %2d replicas → %d groups\n",
			id, migrated, sim.NumGroups())
		mustHold(sim)
	}

	// Shrink by four. Departing servers hand replicas to groupmates and
	// re-home their files; small groups merge back together.
	ids := sim.MDSIDs()
	for _, id := range ids[:4] {
		if err := sim.RemoveMDS(context.Background(), id); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("removed MDS %-3d → %d MDSs in %d groups\n",
			id, sim.NumMDS(), sim.NumGroups())
		mustHold(sim)
	}

	// Every file still resolves after all that churn.
	results, err := ghba.LookupParallel(context.Background(), sim, paths, 0)
	if err != nil {
		log.Fatal(err)
	}
	lost := 0
	for _, res := range results {
		if !res.Found {
			lost++
		}
	}
	fmt.Printf("after churn: %d/%d files resolvable (lost=%d)\n",
		len(paths)-lost, len(paths), lost)
	if lost > 0 {
		log.Fatal("metadata lost during reconfiguration")
	}
}

// mustHold asserts the global-mirror-image invariant after every step.
func mustHold(sim *ghba.Simulation) {
	if err := sim.CheckInvariants(); err != nil {
		log.Fatalf("invariant violated: %v", err)
	}
}
