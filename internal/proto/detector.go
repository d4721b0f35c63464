package proto

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// The detector's one configuration: a heartbeat round every
// heartbeatInterval, each probe due within the same interval, and a daemon
// that misses deadAfter rounds in a row is failed over.
const (
	heartbeatInterval = 15 * time.Millisecond
	deadAfter         = 4
)

// Detector is a heartbeat-driven failure detector: every heartbeatInterval
// a round sends opHeartbeat to every member, counts each daemon's
// consecutive misses and fails it over at deadAfter of them — the
// prototype equivalent of the paper's lightweight membership maintenance,
// where reconfiguration is triggered by observed failure rather than
// operator command.
type Detector struct {
	c *Cluster

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}

	// misses is each member's consecutive missed probes. Only round
	// touches it, and rounds never overlap.
	misses map[int]int

	failovers atomic.Uint64
}

// newDetector builds a detector over c with no probe loop running; tests
// drive it by calling round.
func newDetector(c *Cluster) *Detector {
	return &Detector{
		c:      c,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		misses: make(map[int]int),
	}
}

// StartDetector launches the failure detector. Callers own the returned
// detector and must Stop it before closing the cluster.
func (c *Cluster) StartDetector() *Detector {
	d := newDetector(c)
	go d.run()
	return d
}

// Stop halts the probe loop and waits for it to exit. Idempotent.
func (d *Detector) Stop() {
	d.stopOnce.Do(func() { close(d.stop) })
	<-d.done
}

// Failovers returns how many automatic failovers the detector has run.
func (d *Detector) Failovers() uint64 { return d.failovers.Load() }

// run is the probe loop: one round per tick until Stop.
func (d *Detector) run() {
	defer close(d.done)
	ticker := time.NewTicker(heartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-ticker.C:
			d.round()
		}
	}
}

// round probes every current member in parallel, then folds the results
// in sorted-ID order: an answer clears the daemon's misses, and a daemon
// at deadAfter misses is failed over. A refused failover (the last
// daemon) keeps its count, so the next round retries it; a successful one
// wipes the count, so a daemon that rejoins through RestartMDS is judged on
// fresh probes. The probes build their deadlines from context.Background:
// the detector answers to Stop, not to a caller's context.
func (d *Detector) round() {
	ids := d.c.fleet.Load().IDs()
	results := make([]error, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), heartbeatInterval)
			defer cancel()
			_, results[i] = d.c.Heartbeat(ctx, id)
		}()
	}
	wg.Wait()

	for i, id := range ids {
		if results[i] == nil {
			delete(d.misses, id)
			continue
		}
		d.misses[id]++
		if d.misses[id] < deadAfter {
			continue
		}
		if _, err := d.c.FailMDS(context.Background(), id); err == nil {
			d.failovers.Add(1)
			delete(d.misses, id)
		}
	}
}
