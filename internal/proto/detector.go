package proto

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Health is the failure detector's verdict on one daemon.
type Health int

// Detector verdicts, in escalation order.
const (
	// HealthAlive: the most recent probe succeeded.
	HealthAlive Health = iota
	// HealthSuspect: SuspectAfter consecutive probes failed; the daemon may
	// be slow, partitioned or restarting.
	HealthSuspect
	// HealthDead: DeadAfter consecutive probes failed; failover has been
	// invoked and the daemon removed from membership.
	HealthDead
)

// String names the verdict.
func (h Health) String() string {
	switch h {
	case HealthAlive:
		return "alive"
	case HealthSuspect:
		return "suspect"
	case HealthDead:
		return "dead"
	default:
		return "unknown"
	}
}

// DetectorOptions tunes the heartbeat failure detector.
type DetectorOptions struct {
	// Interval is the probe period. Zero selects 200ms.
	Interval time.Duration
	// Timeout is the per-probe deadline. Zero selects Interval.
	Timeout time.Duration
	// SuspectAfter is the consecutive-miss count that marks a daemon
	// Suspect. Zero selects 2.
	SuspectAfter int
	// DeadAfter is the consecutive-miss count that declares a daemon Dead
	// and triggers failover. Zero selects 5. Must exceed SuspectAfter for
	// the Suspect state to ever be observable.
	DeadAfter int
	// OnTransition, when non-nil, is called (off-lock, from the probe
	// goroutine) after each health transition.
	OnTransition func(id int, from, to Health)
}

func (o DetectorOptions) withDefaults() DetectorOptions {
	if o.Interval <= 0 {
		o.Interval = 200 * time.Millisecond
	}
	if o.Timeout <= 0 {
		o.Timeout = o.Interval
	}
	if o.SuspectAfter <= 0 {
		o.SuspectAfter = 2
	}
	if o.DeadAfter <= 0 {
		o.DeadAfter = 5
	}
	return o
}

// Detector is a heartbeat-driven failure detector: a probe loop sends
// opHeartbeat to every member on a cadence, escalates daemons through
// Alive → Suspect → Dead as consecutive misses accumulate, and invokes the
// cluster's failover path automatically on Dead — the prototype equivalent
// of the paper's lightweight membership maintenance, where reconfiguration
// is triggered by observed failure rather than operator command.
type Detector struct {
	c    *Cluster
	opts DetectorOptions

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}

	mu     sync.Mutex
	misses map[int]int
	state  map[int]Health

	failovers atomic.Uint64
}

// StartDetector launches the failure detector. Callers own the returned
// detector and must Stop it before closing the cluster.
func (c *Cluster) StartDetector(opts DetectorOptions) *Detector {
	d := &Detector{
		c:      c,
		opts:   opts.withDefaults(),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		misses: make(map[int]int),
		state:  make(map[int]Health),
	}
	go d.run()
	return d
}

// Stop halts the probe loop and waits for it to exit. Idempotent.
func (d *Detector) Stop() {
	d.stopOnce.Do(func() { close(d.stop) })
	<-d.done
}

// State returns the current verdict on one daemon. Daemons never probed
// (or never missed) are Alive; a failed-over daemon stays Dead even after
// its removal from membership.
func (d *Detector) State(id int) Health {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.state[id]
}

// Failovers returns how many automatic failovers the detector has run.
func (d *Detector) Failovers() uint64 { return d.failovers.Load() }

// run is the probe loop. It deliberately lives outside StartDetector: the
// loop owns its own probe deadlines (it answers to Stop, not to a caller's
// context), so it builds them from context.Background — legal here because
// run takes no context of its own.
func (d *Detector) run() {
	defer close(d.done)
	ticker := time.NewTicker(d.opts.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-ticker.C:
			d.sweep()
		}
	}
}

// transition records one health change for off-lock callback delivery.
type transition struct {
	id       int
	from, to Health
}

// sweep probes every current member in parallel, folds the results into
// the miss counters in deterministic (sorted-ID) order, and fails over
// whatever crossed the Dead threshold.
func (d *Detector) sweep() {
	ids := d.c.fleet.Load().IDs()
	results := make([]error, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i, id int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), d.opts.Timeout)
			defer cancel()
			_, err := d.c.Heartbeat(ctx, id)
			results[i] = err
		}(i, id)
	}
	wg.Wait()

	var dead []int
	var transitions []transition
	d.mu.Lock()
	for i, id := range ids {
		if results[i] == nil {
			delete(d.misses, id)
			if prev := d.state[id]; prev != HealthAlive {
				d.state[id] = HealthAlive
				transitions = append(transitions, transition{id, prev, HealthAlive})
			}
			continue
		}
		d.misses[id]++
		prev := d.state[id]
		next := prev
		switch {
		case d.misses[id] >= d.opts.DeadAfter:
			next = HealthDead
		case d.misses[id] >= d.opts.SuspectAfter:
			next = HealthSuspect
		}
		if next != prev {
			d.state[id] = next
			transitions = append(transitions, transition{id, prev, next})
		}
		// Dead members are retried every sweep (not just on the
		// transition): if failover is refused — e.g. it would remove the
		// last daemon — a later sweep gets another chance.
		if next == HealthDead {
			dead = append(dead, id)
		}
	}
	d.mu.Unlock()

	for _, tr := range transitions {
		if d.opts.OnTransition != nil {
			d.opts.OnTransition(tr.id, tr.from, tr.to)
		}
	}
	for _, id := range dead {
		if _, err := d.c.FailMDS(context.Background(), id); err == nil {
			d.failovers.Add(1)
			// The daemon left membership; wipe its miss slate so a later
			// rejoin (RestartMDS) is judged on fresh probes, not on the
			// count its corpse accumulated.
			d.mu.Lock()
			delete(d.misses, id)
			d.mu.Unlock()
		}
	}
}
