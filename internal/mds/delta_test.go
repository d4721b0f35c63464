package mds

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"ghba/internal/wal"
)

// scannedDelta is the oracle the incremental counter replaced: one full XOR
// scan of the local filter against the last shipped snapshot.
func scannedDelta(t *testing.T, n *Node) uint64 {
	t.Helper()
	n.mu.RLock()
	defer n.mu.RUnlock()
	d, err := n.local.Load().XorBits(n.lastShipped)
	if err != nil {
		t.Fatalf("local/lastShipped: %v", err)
	}
	return d
}

// TestDeltaBitsIsTheXorDistance drives one node through seeded random
// interleavings of everything that touches the local filter or the shipped
// snapshot and checks after every step that the O(k) counter equals the
// scanned Hamming distance. Re-creating a deleted path after a rebuild is the
// step a plain count of bits turned on gets wrong: those bits are still set in
// the shipped snapshot, so the distance falls while such a count would rise.
func TestDeltaBitsIsTheXorDistance(t *testing.T) {
	cfg := Config{ExpectedFiles: 64, BitsPerFile: 8, LRUCapacity: 8, LRUBitsPerFile: 8}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		n, l, _, err := Recover(4, cfg, dir, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var live, dead []string
		next := 0
		log := func(op uint8, path string) {
			if err := l.Append(wal.Record{Op: op, Path: path}); err != nil {
				t.Fatal(err)
			}
		}
		for step := 0; step < 400; step++ {
			var did string
			switch r := rng.Intn(20); {
			case r < 7:
				path := fmt.Sprintf("/s%d/f%d", seed, next)
				next++
				did = "AddFile(fresh)"
				log(wal.OpCreate, path)
				n.AddFile(path)
				live = append(live, path)
			case r < 9 && len(live) > 0:
				did = "AddFile(live again)"
				path := live[rng.Intn(len(live))]
				log(wal.OpCreate, path)
				n.AddFile(path)
			case r < 11 && len(dead) > 0:
				did = "AddFile(deleted before)"
				i := rng.Intn(len(dead))
				path := dead[i]
				dead = append(dead[:i], dead[i+1:]...)
				log(wal.OpCreate, path)
				n.AddFile(path)
				live = append(live, path)
			case r < 14 && len(live) > 0:
				did = "DeleteFile"
				i := rng.Intn(len(live))
				path := live[i]
				live = append(live[:i], live[i+1:]...)
				dead = append(dead, path)
				log(wal.OpDelete, path)
				n.DeleteFile(path)
			case r < 16:
				did = fmt.Sprintf("RebuildIfStale(2)=%v", n.RebuildIfStale(2))
			case r < 17:
				did = "Ship"
				if snap := n.Ship(); n.Shipped() != snap {
					t.Fatalf("seed %d step %d: Shipped is not the snapshot Ship just handed out", seed, step)
				}
			case r < 18:
				did = "Marshal→Unmarshal"
				blob, err := n.MarshalSnapshot()
				if err != nil {
					t.Fatal(err)
				}
				back, err := NewNode(4, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := back.UnmarshalSnapshot(blob); err != nil {
					t.Fatal(err)
				}
				n = back
			case r < 19:
				did = "wal.Snapshot"
				blob, err := n.MarshalSnapshot()
				if err != nil {
					t.Fatal(err)
				}
				if err := l.Snapshot(blob); err != nil {
					t.Fatal(err)
				}
			default:
				if err := l.Abandon(); err != nil {
					t.Fatal(err)
				}
				var info RecoveryInfo
				if n, l, info, err = Recover(4, cfg, dir, wal.Options{}); err != nil {
					t.Fatal(err)
				}
				did = fmt.Sprintf("Recover(replayed %d)", info.Replayed)
			}
			if did == "" {
				continue
			}
			if got, want := n.DeltaBits(), scannedDelta(t, n); got != want {
				t.Fatalf("seed %d step %d after %s: DeltaBits %d, XOR scan %d", seed, step, did, got, want)
			}
			if n.NeedsShip(3) != (n.DeltaBits() >= 3) {
				t.Fatalf("seed %d step %d: NeedsShip disagrees with DeltaBits", seed, step)
			}
			// Shipped reads the snapshot the distance is measured against
			// and moves nothing.
			if d, err := n.LocalFilter().XorBits(n.Shipped()); err != nil || d != n.DeltaBits() {
				t.Fatalf("seed %d step %d after %s: local is %d bits from Shipped (%v), DeltaBits %d", seed, step, did, d, err, n.DeltaBits())
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDeltaBitsConcurrent runs adders, a deleter that rebuilds, a shipper and
// NeedsShip pollers on one node (under -race in CI): every writer of the
// counter holds the node lock, so at quiescence it still equals the scan.
func TestDeltaBitsConcurrent(t *testing.T) {
	n, err := NewNode(1, Config{ExpectedFiles: 512, BitsPerFile: 8, LRUCapacity: 8, LRUBitsPerFile: 8})
	if err != nil {
		t.Fatal(err)
	}
	const adders, perAdder = 3, 400
	var writers, pollers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < adders; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < perAdder; i++ {
				// Every third add repeats a path another adder owns.
				owner := w
				if i%3 == 0 {
					owner = (w + 1) % adders
				}
				n.AddFile(fmt.Sprintf("/w%d/f%d", owner, i))
			}
		}(w)
	}
	writers.Add(2)
	go func() {
		defer writers.Done()
		for i := 0; i < perAdder; i++ {
			n.DeleteFile(fmt.Sprintf("/w0/f%d", i))
			n.RebuildIfStale(16)
		}
	}()
	go func() {
		defer writers.Done()
		for i := 0; i < perAdder/4; i++ {
			n.Ship()
		}
	}()
	for p := 0; p < 2; p++ {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					n.NeedsShip(DefaultUpdateThresholdBits)
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	pollers.Wait()
	if got, want := n.DeltaBits(), scannedDelta(t, n); got != want {
		t.Fatalf("DeltaBits %d, XOR scan %d", got, want)
	}
}
