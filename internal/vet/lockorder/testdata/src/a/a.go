// Package a exercises every *Locked-contract rule of lockorder against the
// repo's locking conventions: mu is the topology lock, rngMu a finer
// internal lock.
package a

import (
	"sync"
	"sync/atomic"
)

type Cluster struct {
	mu    sync.RWMutex
	rngMu sync.Mutex
	n     int
}

// sizeLocked follows the contract: the caller holds c.mu.
func (c *Cluster) sizeLocked() int { return c.n }

// Rule 1: a *Locked method must not touch its own mu.
func (c *Cluster) badLocked() int {
	c.mu.RLock()         // want `badLocked is suffixed Locked \(caller holds c\.mu\) but calls c\.mu\.RLock itself`
	defer c.mu.RUnlock() // want `badLocked is suffixed Locked \(caller holds c\.mu\) but calls c\.mu\.RUnlock itself`
	return c.n
}

// A *Locked helper may take a finer internal lock (core.randomMDSLocked
// takes rngMu while the caller holds mu).
func (c *Cluster) drawLocked() int {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return c.n
}

// Rule 2, satisfied: the caller read-locks before calling down.
func (c *Cluster) Size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.sizeLocked()
}

// Rule 2, violated: no acquisition anywhere in scope.
func (c *Cluster) SizeRacy() int {
	return c.sizeLocked() // want `call to c\.sizeLocked without holding c\.mu`
}

// Rule 2, violated: the lock was given back before the call.
func (c *Cluster) SizeAfterUnlock() int {
	c.mu.RLock()
	n := c.n
	c.mu.RUnlock()
	return n + c.sizeLocked() // want `call to c\.sizeLocked without holding c\.mu`
}

// Rule 2, exempt: a constructor initializing an object it just built is
// pre-concurrency (the core.New / proto.Start pattern).
func NewCluster() *Cluster {
	c := &Cluster{}
	c.n = c.sizeLocked()
	return c
}

// Rule 2, transferred: a *Locked method may call sibling *Locked helpers.
func (c *Cluster) doubleSizeLocked() int {
	return c.sizeLocked() + c.sizeLocked()
}

// Rule 3: a write acquire must not pair with a read release.
func (c *Cluster) MismatchedDefer() int {
	c.mu.Lock()
	defer c.mu.RUnlock() // want `defer c\.mu\.RUnlock pairs with c\.mu\.Lock above: mismatched lock kinds`
	return c.n
}

// Rule 4: a second RLock in the same block deadlocks against a queued
// writer.
func (c *Cluster) DoubleRLock() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := c.n
	c.mu.RLock() // want `c\.mu\.RLock while c\.mu is already held by RLock`
	defer c.mu.RUnlock()
	return n + c.n
}

// Acquires in sibling branches do not cross-flag.
func (c *Cluster) Branches(wide bool) int {
	if wide {
		c.mu.Lock()
	} else {
		c.mu.Lock()
	}
	defer c.mu.Unlock()
	return c.n
}

// Lock-unlock-relock in one block is a sequence, not a double acquire.
func (c *Cluster) Relock() int {
	c.mu.RLock()
	n := c.n
	c.mu.RUnlock()
	c.mu.RLock()
	defer c.mu.RUnlock()
	return n + c.n
}

// A suppressed finding: the directive documents why the call is safe.
func (c *Cluster) Suppressed() int {
	//ghbavet:ignore exercised single-threaded in the fixture
	return c.sizeLocked()
}

// Rule 5: atomic.Pointer.Store publishes a snapshot and must run
// writer-side.

type Snap struct {
	ids []int
}

type Topo struct {
	mu   sync.RWMutex
	snap atomic.Pointer[Snap]
}

// A *Locked method may publish: the caller holds t.mu exclusively.
func (t *Topo) publishLocked() {
	t.snap.Store(&Snap{})
}

// Publishing under an exclusive Lock in the same function is fine.
func (t *Topo) Publish() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.snap.Store(&Snap{})
}

// Publishing with no lock held races concurrent writers.
func (t *Topo) PublishRacy() {
	t.snap.Store(&Snap{}) // want `t\.snap\.Store publishes a snapshot without t\.mu held exclusively`
}

// RLock is shared: two readers could both Store and lose an update.
func (t *Topo) PublishUnderRead() {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.snap.Store(&Snap{}) // want `t\.snap\.Store publishes a snapshot without t\.mu held exclusively`
}

// A fresh object is unpublished; its fields may be stored freely.
func NewTopo() *Topo {
	t := &Topo{}
	t.snap.Store(&Snap{})
	return t
}

// A bare local atomic.Pointer is unpublished too.
func localPointer() *Snap {
	var p atomic.Pointer[Snap]
	p.Store(&Snap{})
	return p.Load()
}

type T struct {
	mu sync.Mutex
	n  int
}

func (t *T) bumpLocked() { t.n++ }

// The fresh-object exemption starts where the object is built: before t
// is rebound, it still names the caller's shared object.
func Reassigned(t *T) *T {
	t.bumpLocked() // want `call to t\.bumpLocked without holding t\.mu`
	t = &T{}
	t.bumpLocked()
	return t
}

// The exemption follows the variable, not its name: the x built inside
// the if is not the x bound to shared below.
func Shadowed(shared *T, c bool) {
	if c {
		x := &T{}
		x.bumpLocked()
	}
	x := shared
	x.bumpLocked() // want `call to x\.bumpLocked without holding x\.mu`
}

// A re-lock in a nested block is still a re-lock.
func (t *T) Nested(c bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if c {
		t.mu.Lock() // want `t\.mu\.Lock while t\.mu is already held`
	}
}
