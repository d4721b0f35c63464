package proto

import (
	"context"
	"errors"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ghba/internal/mds"
	"ghba/internal/trace"
)

// durableOptions is testOptions plus a WAL directory — the configuration
// every crash/recovery test runs under.
func durableOptions(t *testing.T, n, m int) Options {
	t.Helper()
	o := testOptions(n, m)
	o.DataDir = t.TempDir()
	o.SnapshotEvery = 50
	return o
}

// createFiles homes count files over the RPC (WAL-logged) path.
func createFiles(t *testing.T, c *Cluster, count int) []string {
	t.Helper()
	paths := make([]string, count)
	for i := range paths {
		paths[i] = "/wal/f" + strconv.Itoa(i)
		if _, err := createFile(context.Background(), c, paths[i]); err != nil {
			t.Fatalf("create %s: %v", paths[i], err)
		}
	}
	return paths
}

// verifySweep looks up every path and fails on any wrong-home or lost-file
// answer against the coordinator's ground truth.
func verifySweep(t *testing.T, c *Cluster, paths []string) {
	t.Helper()
	for _, p := range paths {
		want := c.HomeOf(p)
		res, err := c.Lookup(context.Background(), p)
		if err != nil {
			t.Fatalf("lookup %s: %v", p, err)
		}
		if want < 0 {
			if res.Found {
				t.Fatalf("lookup %s: found at %d, ground truth says gone", p, res.Home)
			}
			continue
		}
		if !res.Found || res.Home != want {
			t.Fatalf("lookup %s = %+v, ground truth home %d", p, res, want)
		}
	}
}

func TestHeartbeat(t *testing.T) {
	c := startPopulated(t, 4, 2, 50)
	for _, id := range c.MDSIDs() {
		info, err := c.Heartbeat(context.Background(), id)
		if err != nil {
			t.Fatalf("heartbeat %d: %v", id, err)
		}
		if info.ID != id {
			t.Fatalf("heartbeat %d answered by %d", id, info.ID)
		}
	}
	var total uint64
	for _, id := range c.MDSIDs() {
		info, _ := c.Heartbeat(context.Background(), id)
		total += info.Files
	}
	if total != 50 {
		t.Fatalf("heartbeat file counts sum to %d, want 50", total)
	}
	if err := c.KillMDS(1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	if _, err := c.Heartbeat(ctx, 1); err == nil {
		t.Fatal("heartbeat to a killed daemon succeeded")
	}
}

func TestStartRefusesDirtyDataDir(t *testing.T) {
	opts := durableOptions(t, 3, 2)
	c, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	createFiles(t, c, 20)
	c.Close()
	if _, err := Start(opts); err == nil {
		t.Fatal("Start accepted a data dir with existing state")
	} else if !strings.Contains(err.Error(), "already holds state") {
		t.Fatalf("wrong refusal: %v", err)
	}
}

func TestStartRejectsBadWALSync(t *testing.T) {
	opts := testOptions(2, 2)
	opts.WALSync = "sometimes"
	if _, err := Start(opts); err == nil {
		t.Fatal("unknown WAL sync policy accepted")
	}
}

func TestKillRestartInPlace(t *testing.T) {
	for _, m := range []int{2, 1} {
		t.Run("M="+strconv.Itoa(m), func(t *testing.T) {
			c, err := Start(durableOptions(t, 4, m))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			paths := createFiles(t, c, 120)

			victim := c.MDSIDs()[1]
			if err := c.KillMDS(victim); err != nil {
				t.Fatal(err)
			}
			rep, err := c.RestartMDS(context.Background(), victim)
			if err != nil {
				t.Fatalf("restart: %v", err)
			}
			if rep.Rejoined {
				t.Fatal("in-place restart reported a rejoin")
			}
			if rep.TailLost != 0 {
				// An in-process kill never drops the page cache, so even a
				// weak sync policy loses nothing.
				t.Fatalf("restart lost %d tail files", rep.TailLost)
			}
			if rep.Recovery.Files == 0 {
				t.Fatal("recovery reconstructed an empty daemon")
			}
			if c.NumMDS() != 4 {
				t.Fatalf("membership shrank to %d", c.NumMDS())
			}
			verifySweep(t, c, paths)
		})
	}
}

func TestFailMDSRemovesDaemon(t *testing.T) {
	for _, m := range []int{2, 1} {
		t.Run("M="+strconv.Itoa(m), func(t *testing.T) {
			c := startPopulated(t, 5, m, 200)
			victim := c.MDSIDs()[2]
			lostTruth := 0
			for i := 0; i < 200; i++ {
				if c.HomeOf("/p/f"+strconv.Itoa(i)) == victim {
					lostTruth++
				}
			}
			c.KillMDS(victim) //nolint:errcheck // victim verified present above
			rep, err := c.FailMDS(context.Background(), victim)
			if err != nil {
				t.Fatalf("FailMDS: %v", err)
			}
			if rep.FilesLost != lostTruth {
				t.Fatalf("FilesLost = %d, ground truth had %d at MDS %d", rep.FilesLost, lostTruth, victim)
			}
			if c.NumMDS() != 4 {
				t.Fatalf("membership = %d after failover", c.NumMDS())
			}
			for _, id := range c.MDSIDs() {
				if id == victim {
					t.Fatal("failed daemon still in membership")
				}
			}
			// Every surviving file resolves correctly; the dead daemon's
			// files read as gone, never as a wrong home.
			paths := make([]string, 200)
			for i := range paths {
				paths[i] = "/p/f" + strconv.Itoa(i)
			}
			verifySweep(t, c, paths)
			if _, err := c.FailMDS(context.Background(), victim); err == nil {
				t.Fatal("failing an already-removed daemon succeeded")
			}
		})
	}
}

// TestLookupBatchAfterFailover pins that the vector walk filters hits against
// live membership exactly as the serial walk does: after a failover the L1
// generations and replica bits still name the dead daemon for the files it
// homed, and a verify sent there would fail the whole vector. ObserveBatch=1
// plus a full sweep makes every survivor's L1 remember every home first.
func TestLookupBatchAfterFailover(t *testing.T) {
	opts := testOptions(4, 2)
	opts.ObserveBatch = 1
	c, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	paths := make([]string, 150)
	for i := range paths {
		paths[i] = "/p/f" + strconv.Itoa(i)
	}
	c.Populate(paths)
	verifySweep(t, c, paths)
	victim := c.MDSIDs()[0]
	if _, err := c.FailMDS(context.Background(), victim); err != nil {
		t.Fatalf("FailMDS: %v", err)
	}
	verifySweep(t, c, paths)

	check := func(what string, path string, res LookupResult) {
		t.Helper()
		if want := c.HomeOf(path); want < 0 && res.Found {
			t.Errorf("%s %s: found at %d, ground truth says gone", what, path, res.Home)
		} else if want >= 0 && (!res.Found || res.Home != want) {
			t.Errorf("%s %s = %+v, ground truth home %d", what, path, res, want)
		}
	}
	ctx := context.Background()
	results, err := c.ApplyBatch(ctx, rand.New(rand.NewSource(5)), statRecords(paths))
	if err != nil {
		t.Fatalf("lookup vector after failover: %v", err)
	}
	for i, res := range results {
		check("lookup", paths[i], res)
	}

	// A mixed vector: every old path opened (survivors found, the victim's
	// files gone), with creates and deletes of fresh paths interleaved.
	var recs []trace.Record
	for i, p := range paths {
		recs = append(recs, trace.Record{Op: trace.OpStat, Path: p})
		if i%10 == 0 {
			recs = append(recs, trace.Record{Op: trace.OpCreate, Path: "/after/f" + strconv.Itoa(i)})
		}
		if i%30 == 29 {
			recs = append(recs, trace.Record{Op: trace.OpDelete, Path: "/after/f" + strconv.Itoa(i-9)})
		}
	}
	applied, err := c.ApplyBatch(ctx, rand.New(rand.NewSource(6)), recs)
	if err != nil {
		t.Fatalf("ApplyBatch after failover: %v", err)
	}
	for i, rec := range recs {
		if rec.Op == trace.OpStat {
			check("apply", rec.Path, applied[i])
		}
	}
}

func TestFailMDSRefusesLastDaemon(t *testing.T) {
	c, err := Start(testOptions(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if _, err := c.FailMDS(context.Background(), 0); err == nil {
		t.Fatal("failed the last daemon")
	}
}

// At M = 1 the failed daemon's group dissolves and the rejoin is a split, so
// the case also covers group-index reuse after a dissolved group.
func TestRestartAfterFailoverReclaimsFiles(t *testing.T) {
	for _, m := range []int{2, 1} {
		t.Run("M="+strconv.Itoa(m), func(t *testing.T) {
			c, err := Start(durableOptions(t, 4, m))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			paths := createFiles(t, c, 150)

			victim := c.MDSIDs()[0]
			rep, err := c.FailMDS(context.Background(), victim)
			if err != nil {
				t.Fatal(err)
			}
			if rep.FilesLost == 0 {
				t.Skip("victim homed no files under this seed; nothing to reclaim")
			}
			rr, err := c.RestartMDS(context.Background(), victim)
			if err != nil {
				t.Fatalf("restart after failover: %v", err)
			}
			if !rr.Rejoined {
				t.Fatal("post-failover restart did not rejoin")
			}
			if rr.FilesReclaimed != rep.FilesLost {
				t.Fatalf("reclaimed %d files, failover lost %d", rr.FilesReclaimed, rep.FilesLost)
			}
			if c.NumMDS() != 4 {
				t.Fatalf("membership = %d after rejoin", c.NumMDS())
			}
			checkPlacement(t, c)
			verifySweep(t, c, paths)
			for _, p := range paths {
				if c.HomeOf(p) < 0 {
					t.Fatalf("%s still missing from ground truth after reclaim", p)
				}
			}
		})
	}
}

func TestRestartConflictsDropRecoveredCopy(t *testing.T) {
	c, err := Start(durableOptions(t, 3, 3))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	paths := createFiles(t, c, 60)

	victim := c.MDSIDs()[0]
	rep, err := c.FailMDS(context.Background(), victim)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FilesLost == 0 {
		t.Skip("victim homed no files under this seed")
	}
	// Re-create every scrubbed path at a survivor before the victim comes
	// back: the survivor's copy must win.
	recreated := 0
	for _, p := range paths {
		if c.HomeOf(p) < 0 {
			if _, err := createFile(context.Background(), c, p); err != nil {
				t.Fatal(err)
			}
			recreated++
		}
	}
	rr, err := c.RestartMDS(context.Background(), victim)
	if err != nil {
		t.Fatal(err)
	}
	if rr.FilesDropped != recreated {
		t.Fatalf("dropped %d recovered copies, want %d", rr.FilesDropped, recreated)
	}
	if rr.FilesReclaimed != 0 {
		t.Fatalf("reclaimed %d files that a survivor already homed", rr.FilesReclaimed)
	}
	verifySweep(t, c, paths)
}

// crashingConn stands in for one daemon's connection and hands every
// mutation batch to mutate, which decides when the daemon crashes relative
// to the batch and what the coordinator hears: send delivers the batch over
// a connection of mutate's choosing — inner, the one wrapped, or another.
type crashingConn struct {
	caller
	mutate func(inner caller, send func(to caller) ([]byte, error)) ([]byte, error)
}

func (cc crashingConn) CallContext(ctx context.Context, msgType uint8, payload []byte) ([]byte, error) {
	if msgType != opMutateBatch {
		return cc.caller.CallContext(ctx, msgType, payload)
	}
	return cc.mutate(cc.caller, func(to caller) ([]byte, error) { return to.CallContext(ctx, msgType, payload) })
}

// crashOnNextMutation wraps daemon id's connection in a crashingConn.
// RestartMDS and FailMDS both replace or drop the connection, so mutate runs
// once.
func crashOnNextMutation(c *Cluster, id int, mutate func(inner caller, send func(to caller) ([]byte, error)) ([]byte, error)) {
	c.conns.mu.Lock()
	defer c.conns.mu.Unlock()
	c.conns.conns[id] = crashingConn{caller: c.conns.conns[id], mutate: mutate}
}

// TestMutationAcrossRecoveryLeavesNoPhantom pins mutation rounds against the
// recovery paths that rewrite ground truth while a batch is in flight. A
// create whose daemon applied it, crashed and was reconciled by RestartMDS
// before the reply arrived keeps its claim (withdrawing it left the file in
// the daemon's store and out of the namespace — TestSoakKillRestart's "1
// phantom"); a delete whose daemon was failed over is not rolled back onto
// the removed daemon; and a create claimed before a restart but delivered to
// the recovered daemon after its reconcile is refused there, since the
// reconcile already scrubbed the claim.
func TestMutationAcrossRecoveryLeavesNoPhantom(t *testing.T) {
	ctx := context.Background()
	restart := func(t *testing.T, c *Cluster, id int) {
		if err := c.KillMDS(id); err != nil {
			t.Error(err)
		}
		if _, err := c.RestartMDS(ctx, id); err != nil {
			t.Error(err)
		}
	}
	for _, tc := range []struct {
		name string
		// mutate crashes victim around the batch send delivers.
		mutate func(t *testing.T, c *Cluster, victim int, inner caller, send func(to caller) ([]byte, error)) ([]byte, error)
		// applied is whether the create lands: HomeOf must name the victim.
		applied bool
	}{
		{"create/reply lost across restart", func(t *testing.T, c *Cluster, victim int, inner caller, send func(caller) ([]byte, error)) ([]byte, error) {
			if _, err := send(inner); err != nil {
				t.Error(err)
			}
			restart(t, c, victim)
			return nil, errors.New("connection reset after the daemon applied")
		}, true},
		{"create/request delayed past restart", func(t *testing.T, c *Cluster, victim int, _ caller, send func(caller) ([]byte, error)) ([]byte, error) {
			restart(t, c, victim)
			to, err := c.conns.conn(victim)
			if err != nil {
				t.Error(err)
				return nil, err
			}
			return send(to)
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Start(durableOptions(t, 4, 2))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			paths := createFiles(t, c, 40)
			victim := c.MDSIDs()[1]
			path := "/crash/create"
			crashOnNextMutation(c, victim, func(inner caller, send func(caller) ([]byte, error)) ([]byte, error) {
				return tc.mutate(t, c, victim, inner, send)
			})
			create := trace.Record{Op: trace.OpCreate, Path: path}
			seed := int64(1)
			for drawsFor(c.MDSIDs(), seed, []trace.Record{create})[0] != victim {
				seed++
			}
			_, err = c.ApplyWith(ctx, rand.New(rand.NewSource(seed)), create)
			want := -1
			if tc.applied {
				want = victim
			}
			if got := c.HomeOf(path); got != want {
				t.Errorf("HomeOf(%s) = %d, want %d (create error: %v)", path, got, want, err)
			}
			checkHomesAgree(t, c, append(paths, path))
			checkFileCounts(t, c)
		})
	}
	t.Run("delete/reply lost across failover", func(t *testing.T) {
		c := startPopulated(t, 4, 2, 40)
		victim := c.MDSIDs()[1]
		var paths []string
		path := ""
		for i := 0; i < 40; i++ {
			paths = append(paths, "/p/f"+strconv.Itoa(i))
			if path == "" && c.HomeOf(paths[i]) == victim {
				path = paths[i]
			}
		}
		if path == "" {
			t.Fatalf("MDS %d homes none of the 40 files", victim)
		}
		crashOnNextMutation(c, victim, func(inner caller, send func(caller) ([]byte, error)) ([]byte, error) {
			if _, err := send(inner); err != nil {
				t.Error(err)
			}
			if _, err := c.FailMDS(ctx, victim); err != nil {
				t.Error(err)
			}
			return nil, errors.New("connection reset after the daemon applied")
		})
		if _, err := c.Apply(ctx, trace.Record{Op: trace.OpDelete, Path: path}); err == nil {
			t.Fatal("a delete whose reply was lost reported success")
		}
		if got := c.HomeOf(path); got != -1 {
			t.Errorf("HomeOf(%s) = %d after its home was failed over", path, got)
		}
		checkHomesAgree(t, c, paths)
		checkFileCounts(t, c)
	})
}

func TestDetectorDrivesFailover(t *testing.T) {
	c, err := Start(durableOptions(t, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	paths := createFiles(t, c, 80)

	var mu sync.Mutex
	var seen []transition
	d := c.StartDetector(DetectorOptions{
		Interval:     20 * time.Millisecond,
		SuspectAfter: 2,
		DeadAfter:    4,
		OnTransition: func(id int, from, to Health) {
			mu.Lock()
			seen = append(seen, transition{id, from, to})
			mu.Unlock()
		},
	})
	t.Cleanup(d.Stop)

	victim := c.MDSIDs()[3]
	if err := c.KillMDS(victim); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for d.Failovers() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("detector never failed MDS %d over; state=%v", victim, d.State(victim))
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := d.State(victim); got != HealthDead {
		t.Fatalf("victim state = %v, want dead", got)
	}
	if c.NumMDS() != 3 {
		t.Fatalf("membership = %d after automatic failover", c.NumMDS())
	}
	mu.Lock()
	var victimStates []Health
	for _, tr := range seen {
		if tr.id == victim {
			victimStates = append(victimStates, tr.to)
		}
	}
	mu.Unlock()
	if len(victimStates) < 2 || victimStates[0] != HealthSuspect || victimStates[len(victimStates)-1] != HealthDead {
		t.Fatalf("victim escalated %v, want suspect then dead", victimStates)
	}
	// Healthy daemons never left Alive.
	for _, id := range c.MDSIDs() {
		if got := d.State(id); got != HealthAlive {
			t.Fatalf("live MDS %d reported %v", id, got)
		}
	}
	verifySweep(t, c, paths)
}

func TestDetectorStopIdempotent(t *testing.T) {
	c := startPopulated(t, 2, 2, 10)
	d := c.StartDetector(DetectorOptions{Interval: 10 * time.Millisecond})
	d.Stop()
	d.Stop()
	if d.Failovers() != 0 {
		t.Fatal("detector failed something over in a healthy cluster")
	}
}

func TestHealthString(t *testing.T) {
	for h, want := range map[Health]string{HealthAlive: "alive", HealthSuspect: "suspect", HealthDead: "dead", Health(9): "unknown"} {
		if h.String() != want {
			t.Fatalf("Health(%d).String() = %q, want %q", int(h), h.String(), want)
		}
	}
}

// TestWALSnapshotCadence drives enough mutations through one daemon to
// cross SnapshotEvery and checks the heartbeat's WAL counter resets —
// compaction happened inside the request path.
func TestWALSnapshotCadence(t *testing.T) {
	opts := durableOptions(t, 1, 1)
	opts.SnapshotEvery = 25
	c, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	maxSeen := uint64(0)
	for i := 0; i < 120; i++ {
		if _, err := createFile(context.Background(), c, "/cadence/"+strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
		info, err := c.Heartbeat(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if info.WALRecords > maxSeen {
			maxSeen = info.WALRecords
		}
		if info.WALRecords > 25 {
			t.Fatalf("WAL grew to %d records; compaction cadence 25 never fired", info.WALRecords)
		}
	}
	if maxSeen == 0 {
		t.Fatal("heartbeat never reported WAL growth; is the WAL wired in?")
	}
}

// TestReplicaDriftStaysBounded is core's test of the same name over the
// wire, with the third way a holder acquires a replica outside an update: a
// kill and an in-place restart. Before reconfiguration fetched last-shipped
// snapshots the worst replica strayed 109–118 bits from its origin's filter,
// against a ship threshold of 64.
func TestReplicaDriftStaysBounded(t *testing.T) {
	ctx := context.Background()
	for name, reconfigure := range map[string]func(c *Cluster) error{
		"split": func(c *Cluster) error { _, _, err := c.AddMDS(ctx); return err },
		"fail":  func(c *Cluster) error { _, err := c.FailMDS(ctx, 5); return err },
		"kill+restart": func(c *Cluster) error {
			if err := c.KillMDS(5); err != nil {
				return err
			}
			_, err := c.RestartMDS(ctx, 5)
			return err
		},
	} {
		t.Run(name, func(t *testing.T) {
			c, err := Start(durableOptions(t, 12, 4))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			var worst uint64
			create := func(from, to int) {
				for i := from; i < to; i++ {
					if _, err := createFile(ctx, c, "/drift/f"+strconv.Itoa(i)); err != nil {
						t.Fatal(err)
					}
					// One worker, synchronous ships: the daemons are idle.
					for _, g := range c.Layout().Groups() {
						for _, r := range g.Replicas {
							drift, err := c.servers[r.Origin].node.LocalFilter().XorBits(c.servers[r.Holder].node.Replicas().Get(r.Origin))
							if err != nil {
								t.Fatal(err)
							}
							worst = max(worst, drift)
						}
					}
				}
			}
			create(0, 400)
			if err := reconfigure(c); err != nil {
				t.Fatal(err)
			}
			checkPlacement(t, c)
			create(400, 1200)
			checkPlacement(t, c)
			if worst == 0 || worst > mds.DefaultUpdateThresholdBits {
				t.Errorf("worst replica drift %d bits, want within (0, %d]", worst, mds.DefaultUpdateThresholdBits)
			}
		})
	}
}
