package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ghba"
	"ghba/internal/proto"
	"ghba/internal/trace"
)

// TestSoakKillRestart is the acceptance soak: a durable TCP cluster replays
// a 70:20:10 lookup:create:delete workload while a chaos schedule crashes
// daemons with kill -9 semantics mid-stream. The heartbeat detector — the
// test never calls FailMDS — notices each crash and reconfigures the
// survivors, the victim restarts from its write-ahead log and rejoins, and a
// fixed-seed verification sweep checks every path the run ever named
// against ground truth: zero wrong-home, lost-file or phantom answers.
// Operations that race a crash window may fail; the soak checks what the
// cluster answered, not availability during a kill. The daemons fsync every
// WAL append (in-process kills keep the page cache, so no fsync policy
// changes what the sweep can see). Sized to stay -race-friendly on a small
// CI runner.
func TestSoakKillRestart(t *testing.T) {
	const (
		n, m    = 5, 2 // daemons, group size
		files   = 400  // initial namespace
		ops     = 2_000
		workers = 4
		kills   = 2
		seed    = 1
	)
	profile, err := trace.MixProfile(70, 20, 10)
	if err != nil {
		t.Fatal(err)
	}
	tcfg := trace.Config{
		Profile:          profile,
		TIF:              4,
		FilesPerSubtrace: files / 4,
		MeanInterarrival: 2 * time.Millisecond,
		Seed:             seed,
	}
	tcp, err := ghba.StartPrototype(ghba.PrototypeConfig{
		Config: ghba.Config{
			NumMDS:              n,
			MaxGroupSize:        m,
			ExpectedFilesPerMDS: (2*files/n + 1) * 2,
			BitsPerFile:         16,
			LRUCapacity:         512,
			Seed:                seed,
		},
		DataDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()

	gen, err := trace.NewGenerator(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	var initial []string
	gen.EachInitialPath(func(p string) bool {
		initial = append(initial, p)
		return true
	})
	if err := tcp.CreateAll(context.Background(), initial); err != nil {
		t.Fatal(err)
	}
	lanes, err := splitLanes(tcfg, ops, workers)
	if err != nil {
		t.Fatal(err)
	}

	det := tcp.StartDetector()
	var (
		dispatched, opErrors atomic.Int64
		restarts             []proto.RestartReport
		chaos                sync.WaitGroup
	)
	// Chaos: the k-th strike lands once (k+1)/(kills+1) of the workload has
	// dispatched, so every crash is mid-replay whatever the machine speed.
	// Its failures go to chaosErrs, reported once the workload is done.
	chaosErrs := make(chan string, kills)
	chaos.Add(1)
	go func() {
		defer chaos.Done()
		rng := rand.New(rand.NewSource(trace.DispatchSeed(seed, 1<<20)))
		for k := 0; k < kills; k++ {
			for dispatched.Load() < int64(ops*(k+1)/(kills+1)) {
				time.Sleep(time.Millisecond)
			}
			ids := tcp.MDSIDs()
			victim := ids[rng.Intn(len(ids))]
			if err := tcp.KillMDS(victim); err != nil {
				chaosErrs <- fmt.Sprintf("kill %d: %v", k, err)
				continue
			}
			deadline := time.Now().Add(30 * time.Second)
			for det.Failovers() < uint64(k+1) && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if det.Failovers() < uint64(k+1) {
				chaosErrs <- fmt.Sprintf("kill %d: detector never failed over MDS %d", k, victim)
				continue
			}
			rep, err := tcp.RestartMDS(context.Background(), victim)
			if err != nil {
				chaosErrs <- fmt.Sprintf("restart MDS %d: %v", victim, err)
				continue
			}
			restarts = append(restarts, rep)
		}
	}()

	// Workload: each worker owns one lane of the split trace and tolerates
	// per-op errors, keeping the cluster under load across crash windows.
	// Every dispatched path is recorded for the sweep. The observer never
	// stops a lane, so Drive has no error to return.
	lanePaths := make([][]string, workers)
	start := time.Now()
	_ = ghba.Drive(context.Background(), tcp, seed, lanes, ghba.Shape{}, func(w, _ int, batch []ghba.Op, _ []ghba.Result, err error) error {
		lanePaths[w] = append(lanePaths[w], batch[0].Path)
		if err != nil {
			opErrors.Add(1)
		}
		dispatched.Add(1)
		return nil
	})
	chaos.Wait()
	close(chaosErrs)
	det.Stop()
	t.Logf("%d ops in %v (%d failed during crash windows), %d detector failovers for %d kills",
		ops, time.Since(start).Round(time.Millisecond), opErrors.Load(), det.Failovers(), kills)
	for e := range chaosErrs {
		t.Errorf("chaos: %s", e)
	}
	if got := det.Failovers(); got != kills {
		t.Fatalf("detector ran %d failovers for %d kills", got, kills)
	}
	if len(restarts) != kills {
		t.Fatalf("%d victims restarted, want %d", len(restarts), kills)
	}
	for _, rep := range restarts {
		t.Logf("restart MDS %d: recovered %d files (%d replayed), reclaimed %d, dropped %d, tail lost %d",
			rep.ID, rep.Recovery.Files, rep.Recovery.Replayed, rep.FilesReclaimed, rep.FilesDropped, rep.TailLost)
		if !rep.Rejoined {
			t.Errorf("MDS %d restarted in place; a failed-over victim must rejoin", rep.ID)
		}
		if rep.Recovery.Files == 0 && rep.FilesReclaimed > 0 {
			t.Errorf("MDS %d reclaimed %d files from an empty recovery", rep.ID, rep.FilesReclaimed)
		}
	}
	if err := tcp.Flush(context.Background()); err != nil {
		t.Fatalf("flushing after the soak: %v", err)
	}

	// Verification sweep: ground truth versus a live lookup for every path
	// the run ever named, in sorted order from a fixed seed, so reruns ask
	// the same questions of the same lanes.
	universe := make(map[string]struct{}, len(initial)+ops)
	for _, p := range initial {
		universe[p] = struct{}{}
	}
	for _, lane := range lanePaths {
		for _, p := range lane {
			universe[p] = struct{}{}
		}
	}
	paths := make([]string, 0, len(universe))
	for p := range universe {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	sweep := Sweep(context.Background(), tcp, paths, trace.DispatchSeed(seed, 1<<21), workers)
	t.Logf("sweep: %d paths, %d lost, %d wrong-home, %d phantom, %d errors",
		sweep.Paths, sweep.Lost, sweep.WrongHome, sweep.Phantom, sweep.Errors)
	if !sweep.Clean() {
		t.Error("the sweep found wrong answers")
	}
	if sweep.Paths < files {
		t.Errorf("sweep covered %d paths, want at least the %d initial", sweep.Paths, files)
	}
	if err := tcp.CheckInvariants(); err != nil {
		t.Errorf("invariants after the soak: %v", err)
	}
}
