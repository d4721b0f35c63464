package rpcnet

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// flakyCaller fails its first n calls with a transport-style error, then
// succeeds.
type flakyCaller struct {
	mu       sync.Mutex
	failures int
	calls    int
	err      error
}

func (f *flakyCaller) CallContext(ctx context.Context, msgType uint8, payload []byte) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	if f.calls <= f.failures {
		return nil, f.err
	}
	return append([]byte{msgType}, payload...), nil
}

func TestCallRetryRecoversFromTransportErrors(t *testing.T) {
	f := &flakyCaller{failures: 2, err: errors.New("rpcnet: read: connection reset")}
	p := RetryPolicy{Attempts: 4, Backoff: time.Millisecond}
	resp, err := CallRetry(context.Background(), f, p, 7, []byte("x"))
	if err != nil {
		t.Fatalf("CallRetry: %v", err)
	}
	if string(resp) != "\x07x" {
		t.Fatalf("resp = %q", resp)
	}
	if f.calls != 3 {
		t.Fatalf("calls = %d, want 3", f.calls)
	}
}

func TestCallRetryExhaustsBudget(t *testing.T) {
	werr := errors.New("rpcnet: write: broken pipe")
	f := &flakyCaller{failures: 100, err: werr}
	p := RetryPolicy{Attempts: 3, Backoff: time.Millisecond}
	if _, err := CallRetry(context.Background(), f, p, 1, nil); !errors.Is(err, werr) {
		t.Fatalf("err = %v, want %v", err, werr)
	}
	if f.calls != 3 {
		t.Fatalf("calls = %d, want 3", f.calls)
	}
}

func TestCallRetryNeverRetriesRemoteErrors(t *testing.T) {
	f := &flakyCaller{failures: 100, err: &RemoteError{Msg: "no such replica"}}
	p := RetryPolicy{Attempts: 5, Backoff: time.Millisecond}
	_, err := CallRetry(context.Background(), f, p, 1, nil)
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if f.calls != 1 {
		t.Fatalf("calls = %d: a clean application error was retried", f.calls)
	}
}

func TestCallRetryNeverRetriesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f := &flakyCaller{failures: 100, err: context.Canceled}
	p := RetryPolicy{Attempts: 5, Backoff: time.Millisecond}
	if _, err := CallRetry(ctx, f, p, 1, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if f.calls > 1 {
		t.Fatalf("calls = %d: cancelled context was retried", f.calls)
	}
}

func TestCallRetryBackoffInterruptible(t *testing.T) {
	f := &flakyCaller{failures: 100, err: errors.New("transport down")}
	p := RetryPolicy{Attempts: 10, Backoff: time.Hour}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := CallRetry(ctx, f, p, 1, nil)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not interrupt the backoff sleep")
	}
}

// TestCallRetryAcrossDaemonRestart is the scenario the policy exists for:
// a MuxClient whose server dies and comes back on the same address. The
// first attempt poisons the connection; a retry redials and lands.
func TestCallRetryAcrossDaemonRestart(t *testing.T) {
	echo := func(msgType uint8, payload []byte) ([]byte, error) {
		return payload, nil
	}
	srv, err := Serve("127.0.0.1:0", echo)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	client := NewMuxClient(addr, MuxOptions{DialTimeout: time.Second, CallTimeout: time.Second})
	defer client.Close()
	if _, err := client.Call(1, []byte("warm")); err != nil {
		t.Fatalf("warm call: %v", err)
	}

	srv.Close()
	// Restart on the same address; briefly racing the retry loop is the
	// point — backoff must ride it out.
	restarted := make(chan *Server, 1)
	go func() {
		for i := 0; i < 100; i++ {
			s, err := Serve(addr, echo)
			if err == nil {
				restarted <- s
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		restarted <- nil
	}()

	p := RetryPolicy{Attempts: 20, Backoff: 5 * time.Millisecond, MaxBackoff: 100 * time.Millisecond}
	resp, err := CallRetry(context.Background(), client, p, 1, []byte("again"))
	if err != nil {
		t.Fatalf("call across restart: %v", err)
	}
	if string(resp) != "again" {
		t.Fatalf("resp = %q", resp)
	}
	if s := <-restarted; s != nil {
		s.Close()
	} else {
		t.Fatal("could not rebind the daemon address")
	}
}

func TestDrainWaitsForInflight(t *testing.T) {
	release := make(chan struct{})
	var started sync.WaitGroup
	started.Add(1)
	var completed atomic.Int32
	srv, err := Serve("127.0.0.1:0", func(msgType uint8, payload []byte) ([]byte, error) {
		started.Done()
		<-release
		completed.Add(1)
		return []byte("done"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	client, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	callDone := make(chan error, 1)
	go func() {
		_, err := client.Call(1, nil)
		callDone <- err
	}()
	started.Wait()
	if got := srv.ActiveRequests(); got != 1 {
		t.Fatalf("ActiveRequests = %d, want 1", got)
	}
	// Release the handler just after the drain starts waiting.
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(release)
	}()
	if err := srv.Drain(5 * time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if completed.Load() != 1 {
		t.Fatal("drain returned before the in-flight handler completed")
	}
	if err := <-callDone; err != nil {
		t.Fatalf("in-flight call failed across drain: %v", err)
	}
	// New connections must be refused once draining began.
	if _, err := net.DialTimeout("tcp", srv.Addr(), 100*time.Millisecond); err == nil {
		t.Fatal("dial succeeded against a drained server")
	}
}

func TestDrainTimesOutOnWedgedHandler(t *testing.T) {
	wedge := make(chan struct{})
	defer close(wedge)
	srv, err := Serve("127.0.0.1:0", func(msgType uint8, payload []byte) ([]byte, error) {
		<-wedge
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	client, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	go client.Call(1, nil) //nolint:errcheck // the call is cut by Close
	for srv.ActiveRequests() == 0 {
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	err = srv.Drain(50 * time.Millisecond)
	if err == nil {
		t.Fatal("Drain succeeded with a wedged handler")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Drain blocked %v past its bound", elapsed)
	}
}

func TestDrainCountsMuxRequests(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	srv, err := Serve("127.0.0.1:0", func(msgType uint8, payload []byte) ([]byte, error) {
		if msgType == 2 {
			close(started)
			<-release
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	client := NewMuxClient(srv.Addr(), MuxOptions{})
	defer client.Close()
	if _, err := client.Call(1, nil); err != nil {
		t.Fatal(err)
	}
	callDone := make(chan error, 1)
	go func() {
		_, err := client.Call(2, nil)
		callDone <- err
	}()
	// Wait on the handler itself, not on ActiveRequests: call 1's counter
	// reference is released only after its flush, so a non-zero count here
	// may still be call 1's and not yet call 2's.
	<-started
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(release)
	}()
	if err := srv.Drain(5 * time.Second); err != nil {
		t.Fatalf("Drain over mux: %v", err)
	}
	if err := <-callDone; err != nil {
		t.Fatalf("mux call failed across drain: %v", err)
	}
}
