package proto

import (
	"sync"
	"testing"
	"time"

	"ghba/internal/mds"
	"ghba/internal/wal"
)

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
	ns := &NodeServer{node: node, wal: l, afterAppend: func() {
		close(parked)
		<-release
	}}

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
