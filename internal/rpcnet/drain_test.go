package rpcnet

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

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
