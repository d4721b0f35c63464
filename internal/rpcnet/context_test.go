package rpcnet

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestPoolCloseIdempotent pins the lifecycle contract: Close may be called
// any number of times, from any goroutine, without panicking or leaking.
func TestPoolCloseIdempotent(t *testing.T) {
	s := stallServer(t)
	p := NewPool(s.Addr(), PoolOptions{})
	if _, err := p.CallContext(context.Background(), 1, []byte("warm")); err != nil {
		t.Fatal(err)
	}
	if p.IdleConns() != 1 {
		t.Fatalf("idle = %d, want 1", p.IdleConns())
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Close()
		}()
	}
	wg.Wait()
	p.Close() // and once more, serially
	if p.IdleConns() != 0 {
		t.Errorf("idle after close = %d", p.IdleConns())
	}
}

// TestPoolGetAfterClose pins the checkout contract: Get on a closed pool
// fails with ErrPoolClosed (wrapped detection via errors.Is), and a
// connection checked out before Close can be returned afterwards without a
// panic — it is simply closed instead of retained.
func TestPoolGetAfterClose(t *testing.T) {
	s := stallServer(t)
	p := NewPool(s.Addr(), PoolOptions{})

	// Check one connection out while the pool is open.
	inFlight, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	p.Close()

	if _, err := p.Get(); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("Get after Close = %v, want ErrPoolClosed", err)
	}
	if _, err := p.CallContext(context.Background(), 1, []byte("x")); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("Call after Close = %v, want ErrPoolClosed", err)
	}

	// The in-flight connection still completes its call and its return
	// must not panic or resurrect the idle list.
	resp, err := inFlight.CallContext(context.Background(), 1, []byte("late"))
	if err != nil || !bytes.Equal(resp, []byte("late")) {
		t.Fatalf("in-flight call after pool close: %v %q", err, resp)
	}
	p.Put(inFlight)
	if p.IdleConns() != 0 {
		t.Errorf("closed pool retained a returned connection")
	}
	// The returned connection was closed by Put.
	if _, err := inFlight.CallContext(context.Background(), 1, []byte("dead")); err == nil {
		t.Error("connection returned to a closed pool still usable")
	}
	p.Put(nil) // nil return is a no-op, not a panic
}

// TestCallContextCancellation pins the cancellation path: a context
// cancelled mid-call interrupts the blocked round trip, surfaces
// context.Canceled, and poisons the connection.
func TestCallContextCancellation(t *testing.T) {
	s := stallServer(t)
	cl, err := DialTimeout(s.Addr(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = cl.CallContext(ctx, opStall, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, call was not interrupted", elapsed)
	}
	// The stream position is unknown: the connection is poisoned.
	if _, err := cl.CallContext(context.Background(), 1, []byte("x")); err == nil {
		t.Error("poisoned connection still usable")
	}
}

// TestCallContextDeadline pins the deadline merge: a context deadline
// tighter than the client's configured timeout wins, and expiry surfaces
// context.DeadlineExceeded.
func TestCallContextDeadline(t *testing.T) {
	s := stallServer(t)
	cl, err := DialTimeout(s.Addr(), time.Second, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = cl.CallContext(ctx, opStall, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired call returned %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline honored the 30s client timeout instead: %v", elapsed)
	}
}

// TestCallContextPreCancelled pins the fail-fast path: an already-cancelled
// context never writes a frame, so the connection stays clean and usable.
func TestCallContextPreCancelled(t *testing.T) {
	s := stallServer(t)
	cl, err := DialTimeout(s.Addr(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cl.CallContext(ctx, 1, []byte("x")); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled call returned %v", err)
	}
	// No frame was written: the next call still works.
	resp, err := cl.CallContext(context.Background(), 1, []byte("clean"))
	if err != nil || !bytes.Equal(resp, []byte("clean")) {
		t.Fatalf("connection dirtied by pre-cancelled call: %v %q", err, resp)
	}
}

// TestPoolCallContextDiscardsCancelled pins the pool-side behaviour: a
// cancelled call's connection is discarded, not returned to the idle list.
func TestPoolCallContextDiscardsCancelled(t *testing.T) {
	s := stallServer(t)
	p := NewPool(s.Addr(), PoolOptions{})
	t.Cleanup(p.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := p.CallContext(ctx, opStall, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled pooled call returned %v", err)
	}
	if p.IdleConns() != 0 {
		t.Errorf("cancelled connection returned to the pool")
	}
	// The pool dials fresh and recovers.
	resp, err := p.CallContext(context.Background(), 1, []byte("next"))
	if err != nil || !bytes.Equal(resp, []byte("next")) {
		t.Fatalf("pool did not recover after cancellation: %v %q", err, resp)
	}
}

// TestPoolKeepsConnAfterPreCancelled pins that a call refused before a byte
// was written hands its clean connection back: the pool keeps it idle and
// the next call reuses it instead of dialing.
func TestPoolKeepsConnAfterPreCancelled(t *testing.T) {
	s := stallServer(t)
	p := NewPool(s.Addr(), PoolOptions{})
	t.Cleanup(p.Close)
	if _, err := p.CallContext(context.Background(), 1, []byte("warm")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.CallContext(ctx, 1, []byte("x")); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled pooled call returned %v", err)
	}
	if p.IdleConns() != 1 {
		t.Fatalf("idle = %d after a pre-cancelled call, want 1", p.IdleConns())
	}
	kept := p.idle[0]
	resp, err := p.CallContext(context.Background(), 1, []byte("next"))
	if err != nil || !bytes.Equal(resp, []byte("next")) {
		t.Fatalf("call after pre-cancelled call: %v %q", err, resp)
	}
	if p.IdleConns() != 1 || p.idle[0] != kept {
		t.Error("next call dialed fresh instead of reusing the kept connection")
	}
}

// TestCallContextCancelAfterReturn pins that cancelling a call's context
// once the call has returned never reaches the connection: each of 1,000
// calls on one client is followed by a cancel, and the next call succeeds.
func TestCallContextCancelAfterReturn(t *testing.T) {
	s := stallServer(t)
	cl, err := DialTimeout(s.Addr(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 1000; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		msg := []byte{byte(i), byte(i >> 8)}
		resp, err := cl.CallContext(ctx, 1, msg)
		cancel()
		if err != nil || !bytes.Equal(resp, msg) {
			t.Fatalf("call %d after a cancel-after-return: %v %q", i, err, resp)
		}
	}
}
