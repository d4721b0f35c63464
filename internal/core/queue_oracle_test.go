package core

import (
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"

	"ghba/internal/trace"
)

// queueOracle is the queue model as the walk ran it before its bookings were
// gathered into one critical section per multicast round: a map of next-free
// times, locked and updated once per target.
type queueOracle struct {
	mu   sync.Mutex
	next map[int]time.Duration
}

func (q *queueOracle) remoteWork(id int, arrival, work time.Duration) time.Duration {
	q.mu.Lock()
	start := arrival
	if next := q.next[id]; next > start {
		start = next
	}
	q.next[id] = start + work
	q.mu.Unlock()
	return (start - arrival) + work
}

// expect turns the unqueued result of a lookup (from a twin cluster in the
// same state) into the latency the queued walk must report: every target a
// round reached is booked on the oracle in walk order, and the round's slowest
// response replaces its slowest bare service time.
func (q *queueOracle) expect(c *Cluster, unqueued LookupResult, entry int, arrival time.Duration) time.Duration {
	e := c.fleet.Load()
	lat := unqueued.Latency
	round := func(targets []int, work func(id int) time.Duration) {
		var bare, slowest time.Duration
		for _, id := range targets {
			if id == entry {
				continue
			}
			w := work(id)
			bare = max(bare, w)
			slowest = max(slowest, q.remoteWork(id, arrival, w))
		}
		lat += slowest - bare
	}
	if unqueued.Level >= 3 {
		round(e.Members(entry), func(id int) time.Duration { return c.cfg.Cost.MsgProc + c.segmentProbeCost(e, id) })
	}
	if unqueued.Level == 4 {
		round(e.IDs(), func(int) time.Duration { return c.cfg.Cost.MsgProc + c.cfg.Cost.MemProbe })
	}
	return lat + q.remoteWork(entry, arrival, unqueued.ServerTime) - unqueued.ServerTime
}

// TestQueueModelMatchesPerTargetOracle replays one fixed-seed sequence of
// LookupAt and ApplyWith through the engine and, on a twin cluster kept in the
// same state, through the unqueued walk plus the per-target oracle: Latency
// and ServerTime must agree on every op, across a join, a leave (which leaves
// a hole in the ID-indexed slice), a crash and a ResetQueues.
func TestQueueModelMatchesPerTargetOracle(t *testing.T) {
	const files = 600
	queued, twin := newPopulated(t, 9, 3, files), newPopulated(t, 9, 3, files)
	oracle := &queueOracle{next: map[int]time.Duration{}}
	rngQ, rngT := rand.New(rand.NewSource(11)), rand.New(rand.NewSource(11))
	pick := rand.New(rand.NewSource(12))
	both := func(name string, f func(c *Cluster) error) {
		t.Helper()
		for _, c := range []*Cluster{queued, twin} {
			if err := f(c); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
	waited := 0
	created := 0
	for step := 0; step < 3000; step++ {
		switch step {
		case 500:
			both("AddMDS", func(c *Cluster) error { _, _, err := c.AddMDS(); return err })
		case 1000:
			both("RemoveMDS", func(c *Cluster) error { _, err := c.RemoveMDS(4); return err })
		case 1500:
			both("FailMDS", func(c *Cluster) error { _, err := c.FailMDS(7); return err })
		case 2000:
			queued.ResetQueues()
			oracle.next = map[int]time.Duration{}
		}
		// Arrivals far denser than the service times, so queues build up.
		at := time.Duration(step) * time.Microsecond
		path := "/f" + strconv.Itoa(pick.Intn(files))
		if pick.Intn(5) == 0 {
			path = "/missing" + strconv.Itoa(step) // walks all the way to L4
		}
		var got, plain LookupResult
		var entry int
		switch pick.Intn(10) {
		case 0: // a fresh create, then a delete of it: no queue traffic, but ships and state move
			rec := trace.Record{Op: trace.OpCreate, Path: "/new" + strconv.Itoa(created), At: at}
			if created%2 == 1 {
				rec = trace.Record{Op: trace.OpDelete, Path: "/new" + strconv.Itoa(created-1), At: at}
			}
			created++
			got, plain = queued.ApplyWith(rngQ, rec), twin.ApplyWith(rngT, rec)
			if got != plain {
				t.Fatalf("step %d %v: %+v on the queued cluster, %+v on its twin", step, rec.Op, got, plain)
			}
			continue
		case 1, 2, 3: // ApplyWith draws the entry; the twin draws the same one
			ids := twin.fleet.Load().IDs()
			entry = ids[rngT.Intn(len(ids))]
			got = queued.ApplyWith(rngQ, trace.Record{Op: trace.OpStat, Path: path, At: at})
		default:
			ids := twin.fleet.Load().IDs()
			entry = ids[pick.Intn(len(ids))]
			got = queued.LookupAt(path, entry, at)
		}
		plain = twin.Lookup(path, entry)
		want := oracle.expect(queued, plain, entry, at)
		if got.Latency != want || got.ServerTime != plain.ServerTime || got.Level != plain.Level || got.Home != plain.Home {
			t.Fatalf("step %d (%s via MDS %d, level %d): queued walk %v latency / %v server, oracle %v / %v (twin level %d)",
				step, path, entry, got.Level, got.Latency, got.ServerTime, want, plain.ServerTime, plain.Level)
		}
		if got.Latency > plain.Latency {
			waited++
		}
	}
	if waited < 1000 {
		t.Fatalf("only %d of the lookups queued behind earlier work; the replay does not load the model", waited)
	}
	for _, c := range []*Cluster{queued, twin} {
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOneMDSGlobalMulticastCostsNoResponse pins the degenerate fan-out: with
// nobody to multicast to, L3 and L4 add no remote response time, queued or
// not — a round's slowest response starts at zero, not at one service time.
func TestOneMDSGlobalMulticastCostsNoResponse(t *testing.T) {
	c := newPopulated(t, 1, 1, 10)
	cost := c.cfg.Cost
	want := cost.ClientRTT + c.l1ProbeCost() + c.segmentProbeCost(c.fleet.Load(), 0) +
		2*cost.Multicast(0) + cost.MemProbe + cost.DiskRead
	for name, res := range map[string]LookupResult{
		"unqueued": c.Lookup("/missing", 0),
		"queued":   c.LookupAt("/missing", 0, 0),
	} {
		if res.Level != 4 || res.Found || res.Latency != want {
			t.Errorf("%s: level %d found %v latency %v, want an L4 miss costing %v", name, res.Level, res.Found, res.Latency, want)
		}
	}
}
