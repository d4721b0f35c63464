package rpcnet

import (
	"context"
	"errors"
	"sync"
	"time"
)

// ErrPoolClosed is returned by calls against a closed pool.
var ErrPoolClosed = errors.New("rpcnet: pool closed")

// maxIdle caps the connections a pool retains between calls. Demand beyond
// it still dials — surplus connections are simply closed on return instead
// of retained.
const maxIdle = 8

// PoolOptions configures a connection pool.
type PoolOptions struct {
	// DialTimeout bounds each dial; zero means no bound.
	DialTimeout time.Duration
	// CallTimeout is the per-call deadline applied to every connection;
	// zero disables deadlines.
	CallTimeout time.Duration
}

// Pool is a concurrency-safe pool of connections to one server. Callers
// invoke Call from any number of goroutines; each call checks out an idle
// connection (dialing when none is free), so independent calls proceed in
// parallel instead of serializing on a single socket. Connections that hit
// a transport error or timeout are discarded, and the next call dials
// fresh — one hung or crashed daemon costs failed calls, never a wedged
// pool.
type Pool struct {
	addr string
	opts PoolOptions

	mu     sync.Mutex
	idle   []*Client
	closed bool
}

// NewPool builds a pool for addr. No connection is dialed until the first
// Call.
func NewPool(addr string, opts PoolOptions) *Pool {
	return &Pool{addr: addr, opts: opts}
}

// Call checks out a connection, performs one RPC, and returns the
// connection to the pool. Application errors (*RemoteError) leave the
// connection reusable; transport errors discard it (see Put).
func (p *Pool) Call(msgType uint8, payload []byte) ([]byte, error) {
	return p.CallContext(context.Background(), msgType, payload)
}

// CallContext is Call with per-call cancellation and deadline control; see
// Client.CallContext for the deadline-merging and poisoning semantics. A
// call cancelled mid-flight poisons its connection, which Put then drops;
// one refused before a byte was written leaves it clean and pooled.
func (p *Pool) CallContext(ctx context.Context, msgType uint8, payload []byte) ([]byte, error) {
	cl, err := p.Get()
	if err != nil {
		return nil, err
	}
	resp, err := cl.CallContext(ctx, msgType, payload)
	p.Put(cl)
	return resp, err
}

// Get checks a connection out of the pool, dialing when none is idle. After
// Close it returns ErrPoolClosed. Callers must hand the connection back with
// Put (or Close it after a transport error).
func (p *Pool) Get() (*Client, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrPoolClosed
	}
	if n := len(p.idle); n > 0 {
		cl := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return cl, nil
	}
	p.mu.Unlock()
	return DialTimeout(p.addr, p.opts.DialTimeout, p.opts.CallTimeout)
}

// Put returns a checked-out connection. Connections handed back after Close
// (in-flight calls racing a shutdown) or beyond the idle cap are closed
// instead of retained; both cases are safe, never a panic. A connection
// poisoned mid-call — by a transport error, a timeout, or a context
// cancellation that interrupted its round trip — is dropped, never retained:
// retaining it would hand a guaranteed-to-fail socket to a later caller.
func (p *Pool) Put(cl *Client) {
	if cl == nil {
		return
	}
	if cl.Broken() {
		cl.Close()
		return
	}
	p.mu.Lock()
	if !p.closed && len(p.idle) < maxIdle {
		p.idle = append(p.idle, cl)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	cl.Close()
}

// IdleConns reports the connections currently checked in.
func (p *Pool) IdleConns() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle)
}

// Close closes all idle connections and fails subsequent Gets with
// ErrPoolClosed. It is idempotent, and connections checked out by in-flight
// calls are closed as they return.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	for _, cl := range idle {
		cl.Close()
	}
}
