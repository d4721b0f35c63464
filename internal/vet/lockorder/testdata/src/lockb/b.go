// Package lockb closes a lock cycle against locka using only facts:
// Forward nests locka's lock under its own via a summarized call, and
// Backward nests its own lock under locka's inside a callback.
package lockb

import (
	"sync"

	"locka"
)

type B struct {
	mu   sync.Mutex
	peer *locka.A
}

// Forward establishes lockb.B.mu -> locka.A.mu.
func (b *B) Forward() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.peer.Touch() // want `lock order cycle: locka\.A\.mu acquired while lockb\.B\.mu held`
}

// Backward establishes locka.A.mu -> lockb.B.mu: the literal runs under
// A.mu per WithLock's ParamCalls fact.
func (b *B) Backward() {
	b.peer.WithLock(func() {
		b.mu.Lock() // want `lock order cycle: lockb\.B\.mu acquired while locka\.A\.mu held`
		b.mu.Unlock()
	})
}

// C closes a second cycle against locka, whose back edge only a forwarded
// callback carries.
type C struct {
	mu   sync.Mutex
	peer *locka.A
}

// Up establishes lockb.C.mu -> locka.A.mu.
func (c *C) Up() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.peer.Touch() // want `lock order cycle: locka\.A\.mu acquired while lockb\.C\.mu held`
}

// Relayed establishes locka.A.mu -> lockb.C.mu through Relay, which only
// forwards its callback to WithLock.
func (c *C) Relayed() {
	c.peer.Relay(func() {
		c.mu.Lock() // want `lock order cycle: lockb\.C\.mu acquired while locka\.A\.mu held`
		c.mu.Unlock()
	})
}
