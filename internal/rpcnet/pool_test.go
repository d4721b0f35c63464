package rpcnet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// opStall is the request type stallServer blocks on.
const opStall uint8 = 9

// stallServer echoes every request except opStall, which blocks until the
// returned release function is called (registered as a cleanup, before the
// server's own Close so handlers unblock first).
func stallServer(t *testing.T) *Server {
	t.Helper()
	release := make(chan struct{})
	s, err := Serve("127.0.0.1:0", func(msgType uint8, payload []byte) ([]byte, error) {
		if msgType == opStall {
			<-release
		}
		if msgType == 2 {
			return nil, errors.New("boom")
		}
		return payload, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	t.Cleanup(func() { close(release) })
	return s
}

func TestCallDeadlineOnStalledServer(t *testing.T) {
	s := stallServer(t)
	c, err := DialTimeout(s.Addr(), time.Second, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.CallContext(context.Background(), opStall, []byte("wedge me"))
	if err == nil {
		t.Fatal("call against stalled handler returned")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Errorf("err = %v, want net timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("timeout took %v, deadline was 100ms", elapsed)
	}
	// The stream position is unknown after a timeout: the connection is
	// poisoned and later calls fail fast instead of reading stale frames.
	if _, err := c.CallContext(context.Background(), 1, []byte("after")); !errors.Is(err, ErrServerClosed) {
		t.Errorf("call on poisoned connection = %v, want ErrServerClosed", err)
	}
}

func TestClientWithoutTimeoutStillWorks(t *testing.T) {
	s := stallServer(t)
	c, err := DialTimeout(s.Addr(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.CallContext(context.Background(), 1, []byte("no deadline"))
	if err != nil || !bytes.Equal(resp, []byte("no deadline")) {
		t.Fatalf("call = %q, %v", resp, err)
	}
}

func TestPoolRecoversAfterTimeout(t *testing.T) {
	s := stallServer(t)
	p := NewPool(s.Addr(), PoolOptions{CallTimeout: 100 * time.Millisecond})
	defer p.Close()
	if _, err := p.CallContext(context.Background(), opStall, nil); err == nil {
		t.Fatal("stalled call returned")
	}
	// The timed-out connection was discarded; the next call dials fresh
	// and succeeds against the still-healthy server.
	resp, err := p.CallContext(context.Background(), 1, []byte("alive"))
	if err != nil {
		t.Fatalf("pool did not recover: %v", err)
	}
	if !bytes.Equal(resp, []byte("alive")) {
		t.Errorf("recovered call = %q", resp)
	}
	if p.IdleConns() != 1 {
		t.Errorf("idle = %d, want 1 (bad conn discarded, good conn retained)", p.IdleConns())
	}
}

func TestPoolRemoteErrorKeepsConnection(t *testing.T) {
	s := stallServer(t)
	p := NewPool(s.Addr(), PoolOptions{CallTimeout: time.Second})
	defer p.Close()
	_, err := p.CallContext(context.Background(), 2, nil)
	var remote *RemoteError
	if !errors.As(err, &remote) || remote.Msg != "boom" {
		t.Fatalf("err = %v, want RemoteError boom", err)
	}
	if p.IdleConns() != 1 {
		t.Errorf("idle = %d after app error, want 1 (connection kept)", p.IdleConns())
	}
	if _, err := p.CallContext(context.Background(), 1, []byte("ok")); err != nil {
		t.Errorf("call after app error: %v", err)
	}
}

func TestPoolConcurrentCalls(t *testing.T) {
	s := stallServer(t)
	p := NewPool(s.Addr(), PoolOptions{CallTimeout: 5 * time.Second})
	defer p.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				msg := []byte(fmt.Sprintf("w%d-%d", w, i))
				resp, err := p.CallContext(context.Background(), 1, msg)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(resp, msg) {
					errs <- fmt.Errorf("w%d: cross-talk: %q != %q", w, resp, msg)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if p.IdleConns() > maxIdle {
		t.Errorf("idle = %d, exceeds the cap of %d", p.IdleConns(), maxIdle)
	}
}

// TestPoolPutDropsPoisonedConnection is the regression test for the
// reuse-then-fail bug: a caller using the exported Get/Put surface could
// hand back a connection poisoned by a context cancellation mid-call, and
// the pool would retain it for a later caller to fail on. Put must drop
// broken connections instead.
func TestPoolPutDropsPoisonedConnection(t *testing.T) {
	s := stallServer(t)
	p := NewPool(s.Addr(), PoolOptions{})
	defer p.Close()
	cl, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := cl.CallContext(ctx, opStall, []byte("wedge")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled call = %v, want DeadlineExceeded", err)
	}
	if !cl.Broken() {
		t.Fatal("cancelled mid-call connection not marked broken")
	}
	p.Put(cl)
	if p.IdleConns() != 0 {
		t.Fatalf("idle = %d after putting a poisoned connection, want 0", p.IdleConns())
	}
	// The next checkout dials fresh and works.
	resp, err := p.CallContext(context.Background(), 1, []byte("fresh"))
	if err != nil {
		t.Fatalf("call after dropped poison: %v", err)
	}
	if !bytes.Equal(resp, []byte("fresh")) {
		t.Errorf("got %q", resp)
	}
}

func TestPoolCallAfterClose(t *testing.T) {
	s := stallServer(t)
	p := NewPool(s.Addr(), PoolOptions{})
	if _, err := p.CallContext(context.Background(), 1, nil); err != nil {
		t.Fatal(err)
	}
	p.Close()
	p.Close() // idempotent
	if _, err := p.CallContext(context.Background(), 1, nil); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("call after close = %v, want ErrPoolClosed", err)
	}
}
