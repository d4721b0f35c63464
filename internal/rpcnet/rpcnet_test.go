package rpcnet

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
)

func echoServer(t *testing.T) *Server {
	t.Helper()
	s, err := Serve("127.0.0.1:0", func(msgType uint8, payload []byte) ([]byte, error) {
		switch msgType {
		case 1: // echo
			return payload, nil
		case 2: // fail
			return nil, errors.New("boom")
		case 3: // type+payload
			return append([]byte{msgType}, payload...), nil
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

// TestFrameCodecAllocs pins what a frame costs the heap: writing a classic
// or a mux frame allocates nothing, and reading a classic frame allocates
// only the body it returns.
func TestFrameCodecAllocs(t *testing.T) {
	payload := []byte("/usr/share/dict/words")
	var wire bytes.Buffer
	bw := bufio.NewWriter(&wire)
	if err := writeFrame(bw, 3, payload); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	frame := wire.Bytes()
	src := bytes.NewReader(frame)
	br := bufio.NewReader(src)
	sink := bufio.NewWriter(io.Discard)
	for _, tc := range []struct {
		name string
		want float64
		op   func() error
	}{
		{"writeFrame", 0, func() error { return writeFrame(sink, 3, payload) }},
		{"writeMuxFrame", 0, func() error { return writeMuxFrame(sink, 1<<40, 3, payload) }},
		{"readFrame", 1, func() error {
			src.Reset(frame)
			br.Reset(src)
			lead, got, err := readFrame(br)
			if err == nil && (lead != 3 || !bytes.Equal(got, payload)) {
				err = fmt.Errorf("read back (%d, %q)", lead, got)
			}
			return err
		}},
	} {
		var err error
		allocs := testing.AllocsPerRun(1_000, func() {
			if e := tc.op(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if allocs != tc.want {
			t.Errorf("%s allocates %.2f objects/frame, want %.0f", tc.name, allocs, tc.want)
		}
	}
}

// TestReadFrameEOF pins how a classic stream may end: cleanly between frames
// (io.EOF) or partway into its prefix or body (io.ErrUnexpectedEOF).
func TestReadFrameEOF(t *testing.T) {
	frame := []byte{0, 0, 0, 3, 1, 'o', 'k'}
	for _, tc := range []struct {
		cut  int
		want error
	}{{0, io.EOF}, {2, io.ErrUnexpectedEOF}, {6, io.ErrUnexpectedEOF}} {
		if _, _, err := readFrame(bufio.NewReader(bytes.NewReader(frame[:tc.cut]))); err != tc.want {
			t.Errorf("stream cut at %d bytes: %v, want %v", tc.cut, err, tc.want)
		}
	}
	if lead, got, err := readFrame(bufio.NewReader(bytes.NewReader(frame))); err != nil || lead != 1 || string(got) != "ok" {
		t.Errorf("whole frame: (%d, %q, %v)", lead, got, err)
	}
}

func TestServeRejectsNilHandler(t *testing.T) {
	if _, err := Serve("127.0.0.1:0", nil); err == nil {
		t.Error("nil handler accepted")
	}
}

func TestEchoRoundTrip(t *testing.T) {
	s := echoServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload := []byte("/some/path with spaces and \x00 bytes")
	resp, err := c.Call(1, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, payload) {
		t.Errorf("echo = %q, want %q", resp, payload)
	}
}

func TestEmptyPayload(t *testing.T) {
	s := echoServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Call(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != 0 {
		t.Errorf("empty echo = %q", resp)
	}
}

func TestApplicationError(t *testing.T) {
	s := echoServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(2, nil); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("err = %v, want remote boom", err)
	}
	// Connection survives application errors.
	if _, err := c.Call(1, []byte("still alive")); err != nil {
		t.Errorf("connection dead after app error: %v", err)
	}
}

func TestSequentialCallsOnOneConnection(t *testing.T) {
	s := echoServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 200; i++ {
		msg := []byte(fmt.Sprintf("msg-%d", i))
		resp, err := c.Call(3, msg)
		if err != nil {
			t.Fatal(err)
		}
		if resp[0] != 3 || !bytes.Equal(resp[1:], msg) {
			t.Fatalf("call %d response %q", i, resp)
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	s := echoServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(s.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < 100; i++ {
				msg := []byte(fmt.Sprintf("w%d-%d", w, i))
				resp, err := c.Call(1, msg)
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

func TestLargePayload(t *testing.T) {
	s := echoServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	big := make([]byte, 1<<20) // 1 MB, filter-replica scale
	for i := range big {
		big[i] = byte(i * 31)
	}
	resp, err := c.Call(1, big)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, big) {
		t.Error("large payload corrupted")
	}
}

func TestCallAfterClientClose(t *testing.T) {
	s := echoServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := c.Call(1, nil); err == nil {
		t.Error("call after close succeeded")
	}
	c.Close() // double close is safe
}

func TestCallAfterServerClose(t *testing.T) {
	s, err := Serve("127.0.0.1:0", func(uint8, []byte) ([]byte, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s.Close()
	s.Close() // idempotent
	if _, err := c.Call(1, nil); err == nil {
		t.Error("call against closed server succeeded")
	}
}

func TestDialUnreachable(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Error("dial to closed port succeeded")
	}
}
