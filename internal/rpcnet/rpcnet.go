// Package rpcnet is the prototype's wire layer: a minimal length-prefixed
// binary request/response protocol over TCP. The paper's prototype runs one
// MDS per Linux node; here every MDS daemon listens on a loopback TCP port
// and peers exchange real socket traffic, so message counts (Fig 15) are
// exact and latencies (Fig 14) include genuine network stack costs.
//
// Wire format, big endian:
//
//	request:  len uint32 | type uint8 | payload
//	response: len uint32 | status uint8 | payload   (status 0 = OK,
//	          1 = application error, payload = message)
//
// where len covers everything after the length field.
package rpcnet

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// MaxMessageBytes bounds a single message (filters can be megabytes at
// paper scale, but the prototype's are far smaller).
const MaxMessageBytes = 64 << 20

// ErrServerClosed is returned by calls against a closed server.
var ErrServerClosed = errors.New("rpcnet: server closed")

// RemoteError is an application-level error returned by a server handler.
// The request/response frames completed cleanly, so the connection remains
// usable — pools keep the connection alive after one of these, unlike
// transport errors (timeouts, resets), which poison it.
type RemoteError struct {
	// Msg is the handler's error text as sent on the wire.
	Msg string
}

// Error implements error.
func (e *RemoteError) Error() string { return "rpcnet: remote error: " + e.Msg }

// Handler processes one request and returns the response payload.
// Returning an error sends an application-error response; the connection
// stays usable.
type Handler func(msgType uint8, payload []byte) ([]byte, error)

// Server accepts connections and dispatches requests to its handler,
// serving each connection on its own goroutine.
type Server struct {
	ln      net.Listener
	handler Handler

	// active counts handler invocations in flight, across both protocols;
	// Drain waits on it so a shutdown never cuts a request mid-execution.
	active atomic.Int64

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// Serve starts a server on addr (use "127.0.0.1:0" for an ephemeral port).
func Serve(addr string, handler Handler) (*Server, error) {
	if handler == nil {
		return nil, errors.New("rpcnet: nil handler")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpcnet: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, handler: handler, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReader(conn)
	// One port, two protocols: a mux client opens with a 4-byte magic that
	// can never be a legal classic length prefix, so the first bytes decide
	// which framing this connection speaks.
	if magic, err := br.Peek(len(muxMagic)); err == nil && string(magic) == muxMagic {
		br.Discard(len(muxMagic))
		s.serveMuxConn(conn, br)
		return
	}
	bw := bufio.NewWriter(conn)
	for {
		msgType, payload, err := readFrame(br)
		if err != nil {
			return // connection closed or malformed stream
		}
		// The request stays "active" until its response is flushed, so a
		// Drain that sees zero active requests knows every accepted call
		// got its answer, not just its handler run.
		s.active.Add(1)
		resp, herr := s.handler(msgType, payload)
		status := uint8(0)
		if herr != nil {
			status = 1
			resp = []byte(herr.Error())
		}
		werr := writeFrame(bw, status, resp)
		if werr == nil {
			werr = bw.Flush()
		}
		s.active.Add(-1)
		if werr != nil {
			return
		}
	}
}

// ActiveRequests returns the number of handler invocations in flight.
func (s *Server) ActiveRequests() int64 { return s.active.Load() }

// Drain shuts the server down without cutting requests mid-execution: it
// stops accepting new connections, waits up to timeout for every in-flight
// request (handler plus response write) to finish, then closes. Requests
// that arrive on existing connections while draining still execute; the
// bound covers them too. timeout ≤ 0 closes immediately.
//
// If the bound expires with requests still executing, Drain closes the
// listener and every connection — so clients fail fast — but does NOT wait
// for the wedged handlers: a goroutine blocked inside a handler cannot be
// interrupted, and waiting on it would turn a bounded shutdown into an
// unbounded one. The error reports how many requests were abandoned.
func (s *Server) Drain(timeout time.Duration) error {
	// Stop accepting; established connections keep serving until the close.
	s.ln.Close()
	deadline := time.Now().Add(timeout)
	for s.active.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if cut := s.active.Load(); cut > 0 {
		s.mu.Lock()
		s.closed = true // make the eventual Close a no-op: it must not wg.Wait on wedged handlers
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		return fmt.Errorf("rpcnet: drain timed out with %d requests in flight", cut)
	}
	s.Close()
	return nil
}

// Close stops accepting, closes all connections, and waits for handlers.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.ln.Close()
	s.wg.Wait()
}

// readFrame reads one frame: the leading byte after the length prefix is
// returned separately (request type or response status). The length prefix
// is read in place from r's buffer, so the body is the frame's one
// allocation. A stream that ends inside the prefix is io.ErrUnexpectedEOF;
// one that ends before it is io.EOF.
func readFrame(r *bufio.Reader) (uint8, []byte, error) {
	prefix, err := r.Peek(4)
	if err != nil {
		if err == io.EOF && len(prefix) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(prefix)
	r.Discard(4) // cannot fail: Peek just buffered these bytes
	if n < 1 || n > MaxMessageBytes {
		return 0, nil, fmt.Errorf("rpcnet: frame length %d out of range", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	return body[0], body[1:], nil
}

// writeFrame writes one frame with the given lead byte. Like writeMuxFrame
// it allocates nothing on the success path.
func writeFrame(w *bufio.Writer, lead uint8, payload []byte) error {
	if len(payload)+1 > MaxMessageBytes {
		return errPayloadTooBig(len(payload))
	}
	hdr, err := headerSpace(w, 5)
	if err != nil {
		return err
	}
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(payload)+1))
	if _, err := w.Write(append(hdr, lead)); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// headerSpace returns w's free buffer space, flushed first if it cannot
// hold an n-byte frame header. A header appended to it lives in w's own
// buffer: one built in a local array would escape to the heap through the
// io.Writer under w.
func headerSpace(w *bufio.Writer, n int) ([]byte, error) {
	if w.Available() < n {
		if err := w.Flush(); err != nil {
			return nil, err
		}
	}
	return w.AvailableBuffer(), nil
}

// Client is a synchronous RPC client over one TCP connection. Calls are
// serialized by a mutex; use a Pool (or one client per worker) for
// parallelism. A transport error — timeout, reset, short read — leaves the
// frame boundary unknown, so it poisons the connection: the client closes
// it and every later call fails fast. Application errors (RemoteError) are
// clean frames and leave the connection usable.
type Client struct {
	mu      sync.Mutex
	conn    net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	timeout time.Duration
}

// Dial connects to a server with no call deadline.
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, 0, 0)
}

// DialTimeout connects with a bound on the dial itself and a per-call
// deadline covering each request/response round trip. Zero disables either
// bound. A call that exceeds callTimeout returns a net.Error whose
// Timeout() is true, and the connection is closed: a hung daemon costs one
// failed call, never a wedged client.
func DialTimeout(addr string, dialTimeout, callTimeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("rpcnet: dial %s: %w", addr, err)
	}
	return &Client{
		conn:    conn,
		br:      bufio.NewReader(conn),
		bw:      bufio.NewWriter(conn),
		timeout: callTimeout,
	}, nil
}

// Call sends one request and waits for its response. An application error
// from the handler is returned as a *RemoteError with the server's message;
// any other error means the connection is now closed.
func (c *Client) Call(msgType uint8, payload []byte) ([]byte, error) {
	return c.CallContext(context.Background(), msgType, payload)
}

// CallContext is Call with per-call cancellation and deadline control. The
// effective deadline is the earlier of the client's configured call timeout
// and the context's deadline; cancelling the context interrupts an in-flight
// round trip. Because interruption leaves the frame boundary unknown, a
// cancelled or expired call poisons the connection like any transport error,
// and the returned error wraps ctx.Err() so callers can test it with
// errors.Is(err, context.Canceled / context.DeadlineExceeded).
func (c *Client) CallContext(ctx context.Context, msgType uint8, payload []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil, ErrServerClosed
	}
	if err := ctx.Err(); err != nil {
		// Nothing was written: the connection is still clean, fail fast.
		return nil, err
	}
	var deadline time.Time
	ctxDeadline := false
	if c.timeout > 0 {
		deadline = time.Now().Add(c.timeout)
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
		ctxDeadline = true
	}
	// A zero deadline clears any bound left by a previous call.
	if err := c.conn.SetDeadline(deadline); err != nil {
		return nil, c.poisonLocked(fmt.Errorf("rpcnet: deadline: %w", err))
	}
	// On cancellation, an immediate past deadline interrupts the blocked
	// read/write. The conn handle is captured because poisonLocked may nil
	// out c.conn while the callback is pending; net.Conn is safe for
	// concurrent SetDeadline, and setting one on a closed conn only errors.
	// If the callback has already started when the call ends, the call waits
	// for it: a poke landing after return would hit a connection that may be
	// back in a pool, serving someone else's call.
	if ctx.Done() != nil {
		conn := c.conn
		poked := make(chan struct{})
		stop := context.AfterFunc(ctx, func() {
			conn.SetDeadline(time.Unix(1, 0))
			close(poked)
		})
		defer func() {
			if !stop() {
				<-poked
			}
		}()
	}
	ctxErr := func(err error) error {
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("%w (%v)", cerr, err)
		}
		// The connection deadline came from the context and fired a beat
		// before the context's own timer flipped: still the context's
		// deadline, report it as such.
		var nerr net.Error
		if ctxDeadline && errors.As(err, &nerr) && nerr.Timeout() {
			return fmt.Errorf("%w (%v)", context.DeadlineExceeded, err)
		}
		return err
	}
	if err := writeFrame(c.bw, msgType, payload); err != nil {
		return nil, c.poisonLocked(ctxErr(fmt.Errorf("rpcnet: write: %w", err)))
	}
	if err := c.bw.Flush(); err != nil {
		return nil, c.poisonLocked(ctxErr(fmt.Errorf("rpcnet: flush: %w", err)))
	}
	status, resp, err := readFrame(c.br)
	if err != nil {
		return nil, c.poisonLocked(ctxErr(fmt.Errorf("rpcnet: read: %w", err)))
	}
	if status != 0 {
		return nil, &RemoteError{Msg: string(resp)}
	}
	return resp, nil
}

// poisonLocked closes the connection after a transport error; the stream
// position is unknown, so it can never carry another frame.
func (c *Client) poisonLocked(err error) error {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	return err
}

// Broken reports whether the connection has been poisoned (by a transport
// error, a timeout, or a context cancellation mid-call) or closed. A broken
// client can never carry another call; pools use this to drop, rather than
// retain, connections handed back after such a failure.
func (c *Client) Broken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn == nil
}

// Close closes the connection; subsequent calls fail.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}
