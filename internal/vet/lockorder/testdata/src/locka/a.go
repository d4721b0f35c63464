// Package locka is the upstream half of a cross-package lock cycle: it
// owns a lock and a callback runner, like shipq or the sharded home index.
// It is clean on its own — the inversion only exists once lockb wires the
// callback back into its own lock.
package locka

import "sync"

type A struct{ mu sync.Mutex }

// WithLock runs fn while holding A.mu — exported as a ParamCalls fact so
// downstream packages walk their literals under the right held set.
func (a *A) WithLock(fn func()) {
	a.mu.Lock()
	fn()
	a.mu.Unlock()
}

// Touch acquires and releases A.mu; its Acquires fact gives callers the
// transitive edge.
func (a *A) Touch() {
	a.mu.Lock()
	a.mu.Unlock()
}

// Relay hands fn on to WithLock: a forwarded callback parameter inherits
// the callee's held set, so Relay's fact says fn runs under A.mu too.
func (a *A) Relay(fn func()) {
	a.WithLock(fn)
}
