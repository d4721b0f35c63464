package proto

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"ghba/internal/core"
	"ghba/internal/mds"
	"ghba/internal/rpcnet"
	"ghba/internal/wal"
)

// testDaemon builds the daemon startNode would serve over node, without a
// listener: the test calls its handle directly.
func testDaemon(t testing.TB, node *mds.Node, opts nodeServerOptions) *NodeServer {
	t.Helper()
	ns, err := newNodeServer(node, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ns
}

// TestL1ObserveAndQuery pins the daemon's L1 array: a lookup_batch finds
// nothing there cold, and one whose observations carry a home names that
// home for the path in the same answer — the observations are learned
// before the paths are probed — and in every later one. A path-less request,
// the form a full backlog is delivered in, is learned too; a malformed one
// teaches nothing.
func TestL1ObserveAndQuery(t *testing.T) {
	node, err := mds.NewNode(1, testOptions(1, 1).Node)
	if err != nil {
		t.Fatal(err)
	}
	ns := testDaemon(t, node, nodeServerOptions{})
	l1 := func(path string, obs ...observation) []int {
		resp, err := ns.handle(opLookupBatch, encodeLookupRequest(obs, []string{path}))
		if err != nil {
			t.Fatal(err)
		}
		lists, err := decodeHitsVec(resp, 2) // the path's L1 hits, then its L2 hits
		if err != nil {
			t.Fatal(err)
		}
		return lists[0]
	}
	if hits := l1("/f"); len(hits) != 0 {
		t.Errorf("cold L1 hit %v", hits)
	}
	if hits := l1("/f", observation{home: 9, path: "/f"}); !slices.Equal(hits, []int{9}) {
		t.Errorf("L1 of the request observing /f at 9 = %v, want [9]", hits)
	}
	if hits := l1("/f"); !slices.Equal(hits, []int{9}) {
		t.Errorf("L1 after observing /f at 9 = %v, want [9]", hits)
	}

	resp, err := ns.handle(opLookupBatch, encodeLookupRequest([]observation{{home: 4, path: "/g"}}, nil))
	if err != nil || len(resp) != 0 {
		t.Fatalf("path-less lookup_batch answered %x, %v; want nothing", resp, err)
	}
	if hits := l1("/g"); !slices.Equal(hits, []int{4}) {
		t.Errorf("L1 after a path-less request observing /g at 4 = %v, want [4]", hits)
	}

	bad := encodeLookupRequest([]observation{{home: 5, path: "/h"}}, []string{"/f"})
	if _, err := ns.handle(opLookupBatch, bad[:len(bad)-1]); err == nil {
		t.Fatal("a truncated lookup_batch was accepted")
	}
	if hits := l1("/h"); len(hits) != 0 {
		t.Errorf("a refused request taught L1 %v for /h", hits)
	}
}

// TestDaemonLeavesNoGoroutine starts a daemon, sends a heartbeat on each of
// four pooled connections and closes it: the goroutine count must return to
// what it was before the daemon started, so neither the accept loop nor a
// connection handler outlives Close.
func TestDaemonLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	node, err := mds.NewNode(0, testOptions(1, 1).Node)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := startNode(node, nodeServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pool := rpcnet.NewPool(ns.Addr(), rpcnet.PoolOptions{})
	defer pool.Close()
	// Four connections stay checked out, and open, across Close: the
	// daemon holds a handler for each when it is told to stop.
	for i := 0; i < 4; i++ {
		cl, err := pool.Get() // none is idle, so each dials
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if _, err := cl.CallContext(context.Background(), opHeartbeat, nil); err != nil {
			t.Fatal(err)
		}
	}
	ns.Close()
	// Goroutines of earlier tests may still be winding down, so wait for
	// the count to settle at or below its start rather than read it once.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the daemon started", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSpilledShareMatchesCore pins the one memory model: under the same
// budget, every daemon's spilled share equals the simulator's for the same
// MDS, on HBA (whose segments spill) and G-HBA (whose segments fit).
func TestSpilledShareMatchesCore(t *testing.T) {
	const budget = 10_000 // two and a half 4,000-byte filters
	for _, m := range []int{1, 3} {
		opts := testOptions(6, m)
		opts.MemoryBudgetBytes = budget
		opts.DiskPenalty = time.Millisecond
		tcp, err := Start(opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tcp.Close)
		ccfg := core.DefaultConfig(6, m)
		ccfg.Node = opts.Node
		ccfg.MemoryBudgetBytes = budget
		ccfg.Seed = opts.Seed
		sim, err := core.New(ccfg)
		if err != nil {
			t.Fatal(err)
		}
		spilled := 0
		for id, ns := range tcp.servers {
			got, want := ns.spilledShare(), sim.SpilledShare(sim.Node(id))
			if got != want {
				t.Errorf("M=%d MDS %d: daemon spills %v of its segment, simulator %v", m, id, got, want)
			}
			if got > 0 {
				spilled++
			}
		}
		// HBA's six-filter segments keep two resident; G-HBA's two fit.
		if wantSpilled := map[int]int{1: 6, 3: 0}[m]; spilled != wantSpilled {
			t.Errorf("M=%d: %d daemons spill, want %d", m, spilled, wantSpilled)
		}
	}
}

// TestParkedAppendBlocksNoReader parks a mutation batch right after its
// WAL append, where an fsync would hold it, and requires a heartbeat and a
// verify_batch to the same daemon to return meanwhile: the append runs under
// the daemon's log lock, not the lock its reads take. The verify must not
// yet see the parked file; once released, the batch answers that it created
// the file and the daemon holds it.
func TestParkedAppendBlocksNoReader(t *testing.T) {
	node, l, _, err := mds.Recover(0, testOptions(1, 1).Node, t.TempDir(), wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	free := func() { once.Do(func() { close(release) }) }
	defer free()
	ns := testDaemon(t, node, nodeServerOptions{WAL: l})
	ns.afterAppend = func() {
		close(parked)
		<-release
	}

	type answer struct {
		resp []byte
		err  error
	}
	mutated := make(chan answer, 1)
	go func() {
		resp, err := ns.handle(opMutateBatch, encodeMutations(0, []wal.Record{{Op: wal.OpCreate, Path: "/parked"}}))
		mutated <- answer{resp, err}
	}()
	<-parked

	for _, op := range []uint8{opHeartbeat, opVerifyBatch} {
		var req []byte
		if op == opVerifyBatch {
			req = encodePaths([]string{"/parked"})
		}
		done := make(chan answer, 1)
		go func() {
			resp, err := ns.handle(op, req)
			done <- answer{resp, err}
		}()
		select {
		case a := <-done:
			if a.err != nil {
				t.Fatalf("%s beside a parked mutation batch: %v", opName(op), a.err)
			}
			if op == opVerifyBatch {
				if got, err := decodeBools(a.resp, 1); err != nil || got[0] {
					t.Fatalf("verify_batch saw the parked file before its apply: %v, %v", got, err)
				}
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s waited 10s behind a mutation batch parked after its append", opName(op))
		}
	}

	free()
	a := <-mutated
	if a.err != nil || len(a.resp) != 3 || a.resp[0] != 1 {
		t.Fatalf("parked batch answered %v, %v; want the file created", a.resp, a.err)
	}
	if !node.HasFile("/parked") {
		t.Fatal("the released batch did not apply")
	}
}
