package rpcnet

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func muxEchoServer(t *testing.T) *Server {
	t.Helper()
	s, err := Serve("127.0.0.1:0", func(msgType uint8, payload []byte) ([]byte, error) {
		switch msgType {
		case 1: // echo
			return payload, nil
		case 2: // fail
			return nil, errors.New("boom")
		case 4: // slow echo
			time.Sleep(50 * time.Millisecond)
			return payload, nil
		case 5: // hang until payload says otherwise
			time.Sleep(2 * time.Second)
			return payload, nil
		default:
			return nil, fmt.Errorf("unknown type %d", msgType)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestMuxRoundTrip(t *testing.T) {
	s := muxEchoServer(t)
	m, err := DialMux(s.Addr(), MuxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	payload := []byte("/some/path with spaces and \x00 bytes")
	resp, err := m.Call(1, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, payload) {
		t.Errorf("echo = %q, want %q", resp, payload)
	}
	// Empty payloads frame cleanly too.
	if resp, err := m.Call(1, nil); err != nil || len(resp) != 0 {
		t.Errorf("empty echo = %q, %v", resp, err)
	}
}

func TestMuxConcurrentCallsShareOneSocket(t *testing.T) {
	s := muxEchoServer(t)
	m, err := DialMux(s.Addr(), MuxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 64; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				msg := []byte(fmt.Sprintf("w%d-%d", w, i))
				resp, err := m.Call(1, msg)
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
}

// TestMuxPipelining pins the point of the protocol: a slow response must not
// block a fast one issued after it on the same connection.
func TestMuxPipelining(t *testing.T) {
	s := muxEchoServer(t)
	m, err := DialMux(s.Addr(), MuxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		if _, err := m.Call(4, []byte("slow")); err != nil {
			t.Error(err)
		}
	}()
	time.Sleep(5 * time.Millisecond) // let the slow request hit the wire first
	start := time.Now()
	if _, err := m.Call(1, []byte("fast")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 40*time.Millisecond {
		t.Errorf("fast call waited %v behind a slow one — no pipelining", d)
	}
	<-slowDone
}

func TestMuxRemoteErrorKeepsConnection(t *testing.T) {
	s := muxEchoServer(t)
	m, err := DialMux(s.Addr(), MuxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	_, err = m.Call(2, nil)
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("err = %v, want *RemoteError", err)
	}
	if m.Broken() {
		t.Error("application error poisoned the connection")
	}
	if _, err := m.Call(1, []byte("still alive")); err != nil {
		t.Errorf("connection dead after app error: %v", err)
	}
}

// TestMuxCancellationDoesNotPoison pins the mux protocol's headline
// improvement over the classic client: abandoning one call leaves the
// connection serving every other call, because the late response is simply
// discarded by request ID.
func TestMuxCancellationDoesNotPoison(t *testing.T) {
	s := muxEchoServer(t)
	m, err := DialMux(s.Addr(), MuxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := m.CallContext(ctx, 4, []byte("will be abandoned")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if m.Broken() {
		t.Fatal("cancellation poisoned the connection")
	}
	// The abandoned call's response arrives later and must be discarded
	// without wedging the reader; follow-up calls keep working.
	for i := 0; i < 3; i++ {
		msg := []byte(fmt.Sprintf("after-%d", i))
		resp, err := m.Call(1, msg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resp, msg) {
			t.Errorf("call %d: got %q", i, resp)
		}
	}
}

func TestMuxCallTimeoutPoisons(t *testing.T) {
	s := muxEchoServer(t)
	m, err := DialMux(s.Addr(), MuxOptions{CallTimeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	_, err = m.Call(5, []byte("hang"))
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("err = %v, want a net.Error timeout", err)
	}
	if !m.Broken() {
		t.Error("call timeout did not poison the connection")
	}
	if _, err := m.Call(1, nil); err == nil {
		t.Error("call on poisoned connection succeeded")
	}
}

func TestMuxServerCloseFailsPendingCalls(t *testing.T) {
	s := muxEchoServer(t)
	m, err := DialMux(s.Addr(), MuxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	done := make(chan error, 1)
	go func() {
		_, err := m.Call(4, []byte("in flight at close"))
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	s.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Error("in-flight call survived server close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("in-flight call hung after server close")
	}
	if !m.Broken() {
		t.Error("server close did not poison the connection")
	}
}

func TestMuxWindowBoundsInFlight(t *testing.T) {
	var inFlight, maxInFlight atomic.Int64
	s, err := Serve("127.0.0.1:0", func(_ uint8, payload []byte) ([]byte, error) {
		cur := inFlight.Add(1)
		for {
			prev := maxInFlight.Load()
			if cur <= prev || maxInFlight.CompareAndSwap(prev, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		return payload, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m, err := DialMux(s.Addr(), MuxOptions{Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := m.Call(1, []byte("x")); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := maxInFlight.Load(); got > 4 {
		t.Errorf("observed %d concurrent requests, window is 4", got)
	}
}

func TestMuxClientRedialsAfterPoison(t *testing.T) {
	s := muxEchoServer(t)
	c := NewMuxClient(s.Addr(), MuxOptions{CallTimeout: 20 * time.Millisecond})
	defer c.Close()
	if _, err := c.Call(1, []byte("warm")); err != nil {
		t.Fatal(err)
	}
	// Poison the live connection with a hung call...
	if _, err := c.Call(5, []byte("hang")); err == nil {
		t.Fatal("hung call succeeded")
	}
	// ...and the next call rides a fresh dial.
	resp, err := c.Call(1, []byte("recovered"))
	if err != nil {
		t.Fatalf("call after poison: %v", err)
	}
	if string(resp) != "recovered" {
		t.Errorf("got %q", resp)
	}
}

func TestMuxClientCloseIsTerminal(t *testing.T) {
	s := muxEchoServer(t)
	c := NewMuxClient(s.Addr(), MuxOptions{})
	if _, err := c.Call(1, nil); err != nil {
		t.Fatal(err)
	}
	c.Close()
	c.Close() // idempotent
	if _, err := c.Call(1, nil); err == nil {
		t.Error("call after close succeeded")
	}
}

// TestClassicAndMuxShareOnePort pins the protocol negotiation: the same
// server socket serves an old-style client and a mux client concurrently.
func TestClassicAndMuxShareOnePort(t *testing.T) {
	s := muxEchoServer(t)
	classic, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer classic.Close()
	mux, err := DialMux(s.Addr(), MuxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer mux.Close()
	for i := 0; i < 20; i++ {
		msg := []byte(fmt.Sprintf("interleaved-%d", i))
		if resp, err := classic.Call(1, msg); err != nil || !bytes.Equal(resp, msg) {
			t.Fatalf("classic call %d: %q, %v", i, resp, err)
		}
		if resp, err := mux.Call(1, msg); err != nil || !bytes.Equal(resp, msg) {
			t.Fatalf("mux call %d: %q, %v", i, resp, err)
		}
	}
}

func TestMuxLargePayload(t *testing.T) {
	s := muxEchoServer(t)
	m, err := DialMux(s.Addr(), MuxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	big := make([]byte, 3<<20) // 3 MB: exercises the chunked frame reader
	for i := range big {
		big[i] = byte(i * 31)
	}
	resp, err := m.Call(1, big)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, big) {
		t.Error("large payload corrupted")
	}
}

// TestMuxUnknownResponseIDPoisons pins the corruption check: a response ID
// the client never issued is a protocol violation, not a stray late reply.
func TestMuxUnknownResponseIDPoisons(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		magic := make([]byte, len(muxMagic))
		if _, err := io.ReadFull(conn, magic); err != nil {
			return
		}
		// Answer the first request with an ID from the far future.
		if _, _, _, err := readMuxFrame(conn); err != nil {
			return
		}
		bw := bufio.NewWriter(conn)
		writeMuxFrame(bw, 1<<40, 0, []byte("who asked"))
		bw.Flush()
	}()
	m, err := DialMux(ln.Addr().String(), MuxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Call(1, []byte("hello")); err == nil {
		t.Error("call answered by never-issued ID succeeded")
	}
	if !m.Broken() {
		t.Error("never-issued response ID did not poison the connection")
	}
}
