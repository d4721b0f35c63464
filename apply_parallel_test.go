package ghba

import (
	"context"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"ghba/internal/trace"
)

// mixedOps builds a deterministic mixed workload over a fresh namespace:
// lookups of populated files interleaved with creates and deletes of new
// ones.
func mixedOps(n int) []Op {
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		switch {
		case i%5 == 3:
			ops = append(ops, Op{Kind: OpCreate, Path: "/mix/new" + strconv.Itoa(i)})
		case i%5 == 4:
			// Delete the create from the previous step of this cycle.
			ops = append(ops, Op{Kind: OpDelete, Path: "/mix/new" + strconv.Itoa(i-1)})
		default:
			ops = append(ops, Op{Kind: OpLookup, Path: "/par/f" + strconv.Itoa(i%300)})
		}
	}
	return ops
}

// TestApplyParallelSingleWorkerMatchesSerial pins the mutation engine's
// reproducibility contract, mirroring LookupParallel's: a single-worker
// ApplyParallel is exactly the serial engine driven by worker 0's RNG.
func TestApplyParallelSingleWorkerMatchesSerial(t *testing.T) {
	simA, _ := newParallelSim(t, 300, 1)
	simB, _ := newParallelSim(t, 300, 1)
	ops := mixedOps(1_500)

	parallel, err := ApplyParallel(context.Background(), simA, ops, 1)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(trace.DispatchSeed(simB.seed, 0)))
	serial := make([]Result, len(ops))
	for i, op := range ops {
		serial[i] = simB.cluster.ApplyWith(rng, op.Record())
	}

	for i := range parallel {
		if parallel[i] != serial[i] {
			t.Fatalf("op %d diverged: parallel %+v, serial %+v", i, parallel[i], serial[i])
		}
	}
	if simA.FileCount() != simB.FileCount() {
		t.Errorf("file counts diverged: %d vs %d", simA.FileCount(), simB.FileCount())
	}
	if fa, fb := simA.LevelFractions(), simB.LevelFractions(); fa != fb {
		t.Errorf("tally fractions diverged: %v vs %v", fa, fb)
	}
}

// TestApplyParallelManyWorkers checks interleaving-independent properties
// of a concurrent mixed workload: results line up with their ops, creates
// report homes, live deletes report the pre-delete home, and the namespace
// and invariants come out consistent.
func TestApplyParallelManyWorkers(t *testing.T) {
	sim, _ := newParallelSim(t, 300, 1)
	before := sim.FileCount()

	// Disjoint per-index paths so concurrent workers never race on one
	// path's lifecycle; cross-path interleaving is still arbitrary.
	ops := make([]Op, 4_000)
	for i := range ops {
		switch i % 4 {
		case 0:
			ops[i] = Op{Kind: OpCreate, Path: "/mw/c" + strconv.Itoa(i)}
		case 1:
			ops[i] = Op{Kind: OpDelete, Path: "/mw/absent" + strconv.Itoa(i)}
		default:
			ops[i] = Op{Kind: OpLookup, Path: "/par/f" + strconv.Itoa(i%300)}
		}
	}
	results, err := ApplyParallel(context.Background(), sim, ops, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(ops) {
		t.Fatalf("got %d results for %d ops", len(results), len(ops))
	}
	creates := 0
	for i, res := range results {
		if res.Path != ops[i].Path {
			t.Fatalf("result %d is for %q, want %q", i, res.Path, ops[i].Path)
		}
		switch ops[i].Kind {
		case OpCreate:
			if !res.Found || res.Home < 0 {
				t.Fatalf("create %d reported %+v", i, res)
			}
			creates++
		case OpDelete:
			if res.Found || res.Home != -1 {
				t.Fatalf("absent delete %d reported %+v", i, res)
			}
		default:
			if !res.Found {
				t.Fatalf("lookup of existing %s missed", res.Path)
			}
		}
	}
	if got, want := sim.FileCount(), before+creates; got != want {
		t.Errorf("file count %d, want %d", got, want)
	}
	if err := sim.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := sim.CheckInvariants(); err != nil {
		t.Fatalf("invariants after parallel mutations: %v", err)
	}
	// Every created file resolves to its reported home.
	for i, res := range results {
		if ops[i].Kind == OpCreate && sim.cluster.HomeOf(res.Path) != res.Home {
			t.Fatalf("created %s homed at %d, lookup truth %d",
				res.Path, res.Home, sim.cluster.HomeOf(res.Path))
		}
	}
}

// TestApplyParallelWithReconfig drives mixed mutations concurrently with
// facade-level reconfiguration — the workload the sharded write path
// exists for.
func TestApplyParallelWithReconfig(t *testing.T) {
	sim, _ := newParallelSim(t, 200, 1)
	ops := make([]Op, 2_000)
	for i := range ops {
		if i%3 == 0 {
			ops[i] = Op{Kind: OpCreate, Path: "/rc/c" + strconv.Itoa(i)}
		} else {
			ops[i] = Op{Kind: OpLookup, Path: "/par/f" + strconv.Itoa(i%200)}
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			id, _, err := sim.AddMDS(context.Background())
			if err != nil {
				t.Errorf("AddMDS: %v", err)
				return
			}
			if err := sim.RemoveMDS(context.Background(), id); err != nil {
				t.Errorf("RemoveMDS(%d): %v", id, err)
				return
			}
		}
	}()
	results, err := ApplyParallel(context.Background(), sim, ops, 4)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	for i, res := range results {
		if ops[i].Kind == OpCreate && !res.Found {
			t.Fatalf("create %s failed during reconfiguration", res.Path)
		}
	}
	if err := sim.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := sim.CheckInvariants(); err != nil {
		t.Fatalf("invariants after churn: %v", err)
	}
}

// TestApplyParallelEdgeCases covers empty input and worker clamping.
func TestApplyParallelEdgeCases(t *testing.T) {
	sim, _ := newParallelSim(t, 10, 1)
	if res, err := ApplyParallel(context.Background(), sim, nil, 4); err != nil || res != nil {
		t.Errorf("empty batch returned %v", res)
	}
	res, err := ApplyParallel(context.Background(), sim, []Op{{Kind: OpLookup, Path: "/par/f1"}}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || !res[0].Found {
		t.Errorf("clamped run returned %+v", res)
	}
	res, err = ApplyParallel(context.Background(), sim, []Op{{Kind: OpCreate, Path: "/edge/c"}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || !res[0].Found {
		t.Errorf("default-worker run returned %+v", res)
	}
}

// TestApplyParallelRecordKinds pins the Op→trace.Record mapping.
func TestApplyParallelRecordKinds(t *testing.T) {
	if (Op{Kind: OpCreate}).Record().Op != trace.OpCreate {
		t.Error("OpCreate mapping")
	}
	if (Op{Kind: OpDelete}).Record().Op != trace.OpDelete {
		t.Error("OpDelete mapping")
	}
	if (Op{Kind: OpLookup}).Record().Op != trace.OpStat {
		t.Error("OpLookup mapping")
	}
}
