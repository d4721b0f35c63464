package experiments

import (
	"context"
	"errors"
	"math/rand"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"ghba"
	"ghba/internal/core"
	"ghba/internal/simnet"
	"ghba/internal/trace"
)

// replayTestTraceConfig is the fixed-seed mixed workload both equivalence
// runs replay: mutation-heavy enough that creates, deletes, rebuilds and
// replica ships all fire.
func replayTestTraceConfig() trace.Config {
	return trace.Config{
		Profile:          trace.MustMixProfile(60, 25, 15),
		TIF:              2,
		FilesPerSubtrace: 600,
		Seed:             21,
	}
}

// newReplayTestCluster builds one populated G-HBA cluster for the trace.
func newReplayTestCluster(t *testing.T, tcfg trace.Config) *core.Cluster {
	t.Helper()
	cluster, _, err := simulate(tcfg, 12, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	return cluster
}

// fingerprintCluster folds the observable outcome of a replay into one
// FNV-1a fingerprint: the home of every initial-namespace path plus the
// homes of the created-path index range the trace can have touched, the
// per-level tallies, and the per-type message counts.
func fingerprintCluster(c *core.Cluster, tcfg trace.Config, createdSpan uint64) uint64 {
	const offset, prime = uint64(14695981039346656037), uint64(1099511628211)
	fp := offset
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			fp ^= uint64(s[i])
			fp *= prime
		}
	}
	probe := func(path string) {
		mix(path)
		mix(":" + strconv.Itoa(c.HomeOf(path)) + ";")
	}
	for sub := 0; sub < tcfg.TIF; sub++ {
		for f := uint64(0); f < tcfg.FilesPerSubtrace+createdSpan; f++ {
			probe(trace.PathFor(sub, f))
		}
	}
	for l := 1; l <= 4; l++ {
		mix("L" + strconv.Itoa(l) + "=" + strconv.FormatUint(c.Tally().Count(l), 10) + ";")
	}
	for typ := simnet.MsgQueryUnicast; typ <= simnet.MsgMembership; typ++ {
		if n := c.Messages().Get(typ); n > 0 {
			mix("M" + strconv.Itoa(int(typ)) + "=" + strconv.FormatUint(n, 10) + ";")
		}
	}
	return fp
}

// TestReplayParallelSingleWorkerMatchesSerial pins the reproducibility
// contract of the parallel replay engine (satellite of the concurrent
// mutation pipeline): a serial Replay and a one-worker ReplayParallel over
// the same fixed-seed mixed trace must produce identical home assignments,
// identical per-level tallies, identical per-type message counts, and the
// same mean lookup latency. The final fingerprint is also pinned as a
// constant so any silent drift of the mutation pipeline — RNG draw order,
// ship scheduling, delete semantics — fails loudly even if it drifts the
// same way on both sides. The batched subtests pin the other half of the
// one lane loop: dispatching the lane in 64-op vectors homes every file
// where op-by-op dispatch does, on both backends.
func TestReplayParallelSingleWorkerMatchesSerial(t *testing.T) {
	tcfg := replayTestTraceConfig()
	const ops = 6_000

	serial := newReplayTestCluster(t, tcfg)
	gen, err := trace.NewGenerator(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	points, err := Replay(context.Background(), ghba.SimulationOver(serial, tcfg.Seed), gen, ops, ops)
	if err != nil {
		t.Fatal(err)
	}

	parallel := newReplayTestCluster(t, tcfg)
	stats, err := ReplayParallel(context.Background(), ghba.SimulationOver(parallel, tcfg.Seed), tcfg, ops, 1, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Home assignments: every path either cluster can know about agrees.
	// The created-index span is bounded by ops (each record mints at most
	// one fresh index).
	fpSerial := fingerprintCluster(serial, tcfg, ops)
	fpParallel := fingerprintCluster(parallel, tcfg, ops)
	if fpSerial != fpParallel {
		t.Fatalf("serial and 1-worker replay diverged: fp %d vs %d", fpSerial, fpParallel)
	}
	if serial.FileCount() != parallel.FileCount() {
		t.Errorf("file counts diverged: %d vs %d", serial.FileCount(), parallel.FileCount())
	}
	for l := 1; l <= 4; l++ {
		if serial.Tally().Count(l) != parallel.Tally().Count(l) {
			t.Errorf("L%d tally diverged: %d vs %d", l, serial.Tally().Count(l), parallel.Tally().Count(l))
		}
	}
	for typ := simnet.MsgQueryUnicast; typ <= simnet.MsgMembership; typ++ {
		if s, p := serial.Messages().Get(typ), parallel.Messages().Get(typ); s != p {
			t.Errorf("message type %d count diverged: %d vs %d", typ, s, p)
		}
	}
	if got := points[len(points)-1].MeanLatency; got != stats.MeanLookupLatency {
		t.Errorf("mean lookup latency diverged: serial %v vs parallel %v", got, stats.MeanLookupLatency)
	}

	// Pinned fingerprint: captured from the serial engine at this fixed
	// seed. A mismatch means the mutation pipeline's observable behaviour
	// changed — rebase deliberately or fix the regression.
	const wantFP = uint64(17586631006113522035)
	if fpSerial != wantFP {
		t.Errorf("pinned replay fingerprint drifted: got %d, want %d", fpSerial, wantFP)
	}

	fcfg := ghba.Config{NumMDS: 6, MaxGroupSize: 3, ExpectedFilesPerMDS: 2_000, Seed: tcfg.Seed}
	backends := []struct {
		name  string
		build func(t *testing.T) homedBackend
	}{
		{"batched/sim", func(t *testing.T) homedBackend {
			sim, err := ghba.New(fcfg)
			if err != nil {
				t.Fatal(err)
			}
			return sim
		}},
		{"batched/tcp", func(t *testing.T) homedBackend {
			if testing.Short() {
				t.Skip("loopback TCP daemons are not short")
			}
			tcp, err := ghba.StartPrototype(ghba.PrototypeConfig{Config: fcfg})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { tcp.Close() })
			return tcp
		}},
	}
	for _, tc := range backends {
		t.Run(tc.name, func(t *testing.T) {
			const ops = 2_000
			replay := func(batchSize int) (homedBackend, ReplayStats) {
				b := tc.build(t)
				if err := PopulateFromGenerator(b, gen); err != nil {
					t.Fatal(err)
				}
				stats, err := ReplayParallel(context.Background(), b, tcfg, ops, 1, batchSize)
				if err != nil {
					t.Fatal(err)
				}
				return b, stats
			}
			perOp, ps := replay(1)
			batched, bs := replay(64)
			for sub := 0; sub < tcfg.TIF; sub++ {
				for f := uint64(0); f < tcfg.FilesPerSubtrace+ops; f++ {
					p := trace.PathFor(sub, f)
					if hp, hb := perOp.HomeOf(p), batched.HomeOf(p); hp != hb {
						t.Fatalf("%s homed at %d per op, %d batched", p, hp, hb)
					}
				}
			}
			if perOp.FileCount() != batched.FileCount() {
				t.Errorf("file counts diverged: %d vs %d", perOp.FileCount(), batched.FileCount())
			}
			if ps.Lookups != bs.Lookups || ps.Creates != bs.Creates ||
				ps.Deletes != bs.Deletes || ps.DeleteMisses != bs.DeleteMisses {
				t.Errorf("record classification diverged: per-op %+v, batched %+v", ps, bs)
			}
		})
	}
}

// homedBackend is a batch-capable Backend that also exposes ground truth, as
// both ghba backends do.
type homedBackend interface {
	ghba.Backend
	ghba.BatchApplier
	HomeOf(path string) int
}

// TestReplayParallelManyWorkersProperties checks what must hold in every
// interleaving of a multi-worker replay: all records are dispatched and
// classified, lane-strided creates never collide (so the namespace arithmetic
// is exact), the cluster's invariants survive, and the level tallies account
// for every lookup.
func TestReplayParallelManyWorkersProperties(t *testing.T) {
	tcfg := replayTestTraceConfig()
	const ops, workers = 8_000, 4

	cluster := newReplayTestCluster(t, tcfg)
	initial := cluster.FileCount()
	stats, err := ReplayParallel(context.Background(), ghba.SimulationOver(cluster, tcfg.Seed), tcfg, ops, workers, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Workers != workers || stats.Ops != ops {
		t.Fatalf("stats shape wrong: %+v", stats)
	}
	if got := stats.Lookups + stats.Creates + stats.Deletes + stats.DeleteMisses; got != ops {
		t.Errorf("classified %d of %d records", got, ops)
	}
	// Strided allocation keeps every worker's fresh paths disjoint, so the
	// namespace arithmetic must be exact.
	if got, want := cluster.FileCount(), initial+stats.Creates-stats.Deletes; got != want {
		t.Errorf("file count %d, want %d (initial %d + creates %d - deletes %d)",
			got, want, initial, stats.Creates, stats.Deletes)
	}
	if stats.Lookups == 0 || stats.Creates == 0 || stats.Deletes == 0 {
		t.Errorf("mixed workload missing op kinds: %+v", stats)
	}
	if stats.MeanLookupLatency <= 0 {
		t.Errorf("non-positive mean lookup latency")
	}
	if err := cluster.CheckInvariants(); err != nil {
		t.Fatalf("invariants after parallel replay: %v", err)
	}
	var tallied uint64
	for l := 1; l <= 4; l++ {
		tallied += cluster.Tally().Count(l)
	}
	if want := uint64(stats.Lookups); tallied != want {
		t.Errorf("tallies account for %d lookups, want %d", tallied, want)
	}
	// ReplayParallel flushes before it returns, so a second flush ships
	// nothing.
	shipped := cluster.Messages().Get(simnet.MsgReplicaUpdate)
	cluster.Flush()
	if again := cluster.Messages().Get(simnet.MsgReplicaUpdate); again != shipped {
		t.Errorf("a flush after ReplayParallel shipped %d replica updates (missing flush)", again-shipped)
	}
}

// failingBackend fails every op on one path and counts the calls it sees.
// Methods ReplayParallel never calls panic through the nil embedded Backend.
type failingBackend struct {
	ghba.Backend
	fail            string
	calls, failures atomic.Int64
}

func (f *failingBackend) ApplyWith(_ context.Context, _ *rand.Rand, op ghba.Op) (ghba.Result, error) {
	f.calls.Add(1)
	if op.Path == f.fail {
		f.failures.Add(1)
		return ghba.Result{}, errors.New("injected failure")
	}
	return ghba.Result{Level: 1}, nil
}

func (f *failingBackend) Flush(context.Context) error { return nil }

// TestReplayParallelOpsOnError pins that a lane error reports the records
// actually dispatched, not the requested total: the lane that hit the failing
// path stops early, and every dispatched record is either classified or is
// the failed call's.
func TestReplayParallelOpsOnError(t *testing.T) {
	tcfg := replayTestTraceConfig()
	const ops, workers = 300, 3
	gens, err := trace.SplitGenerators(tcfg, workers)
	if err != nil {
		t.Fatal(err)
	}
	var fail string
	for i := 0; i < 5; i++ {
		fail = gens[1].Next().Path
	}
	f := &failingBackend{fail: fail}
	stats, err := ReplayParallel(context.Background(), f, tcfg, ops, workers, 1)
	if err == nil || !strings.Contains(err.Error(), fail) {
		t.Fatalf("error %v, want one naming %q", err, fail)
	}
	if got := int(f.calls.Load()); stats.Ops != got || got >= ops {
		t.Errorf("stats.Ops = %d, backend saw %d of %d records", stats.Ops, got, ops)
	}
	if got := stats.Lookups + stats.Creates + stats.Deletes + stats.DeleteMisses + int(f.failures.Load()); got != stats.Ops {
		t.Errorf("classified plus failed = %d, want stats.Ops = %d", got, stats.Ops)
	}
}
