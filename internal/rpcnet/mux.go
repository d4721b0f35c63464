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
	"time"
)

// The multiplexed protocol ("mux") shares one socket among many concurrent
// logical calls: every frame carries a request ID, one writer goroutine and
// one reader goroutine own the socket's two directions, and an in-flight
// window bounds the requests awaiting responses. Responses may return in any
// order; the ID pairs them with their calls. A connection opens with a
// 4-byte magic so servers can keep speaking the classic one-call-per-frame
// protocol to old clients on the same port.
//
// Mux frame, big endian, both directions:
//
//	len uint32 | id uint64 | lead uint8 | payload
//
// where len covers everything after the length field (so len ≥ 9), lead is
// the request type client→server and the status byte (0 = OK, 1 =
// application error) server→client, and len is capped at MaxMessageBytes.
//
// Error semantics mirror the classic Client where the transport allows:
// application errors are clean frames and surface as *RemoteError; transport
// errors (resets, short reads, malformed frames, call timeouts against a
// hung server) poison the connection and fail every in-flight call. Context
// cancellation, however, no longer poisons: the frame boundary is owned by
// the writer goroutine, so an abandoned call just discards its response when
// it arrives and the connection keeps serving other calls.

// muxMagic opens every mux connection. As a classic frame it would declare a
// ~1.2 GB length — far beyond MaxMessageBytes — so sniffing it can never
// misread a legal classic request.
const muxMagic = "GMX1"

// DefaultWindow is the in-flight window applied when MuxOptions leaves
// Window zero: calls beyond it queue client-side until responses drain.
const DefaultWindow = 256

// muxFrameOverhead is the id+lead bytes covered by a mux frame's length.
const muxFrameOverhead = 9

// ErrConnClosed is returned by calls against a mux connection that was
// closed locally (as opposed to poisoned by a transport error, which fails
// calls with the poisoning error).
var ErrConnClosed = errors.New("rpcnet: connection closed")

// errCallTimeout marks a per-call deadline expiry against an unresponsive
// server; it poisons the connection like any transport fault.
type errCallTimeout struct{ d time.Duration }

func (e *errCallTimeout) Error() string {
	return fmt.Sprintf("rpcnet: call timed out after %v", e.d)
}

// Timeout and Temporary make *errCallTimeout satisfy net.Error, so callers
// testing nerr.Timeout() treat mux and classic timeouts alike.
func (e *errCallTimeout) Timeout() bool   { return true }
func (e *errCallTimeout) Temporary() bool { return true }

// errPayloadTooBig reports an oversized outbound payload. A value-typed
// error keeps the size check on the frame-write hot path free of fmt calls:
// the message is formatted only if a caller reads it, and the interface
// boxing happens on the failure return, never on the success path.
type errPayloadTooBig int

func (e errPayloadTooBig) Error() string {
	return fmt.Sprintf("rpcnet: payload %d bytes exceeds limit", int(e))
}

// writeMuxFrame appends one mux frame to w, allocating nothing on the
// success path (the header is built in w's buffer; see headerSpace).
func writeMuxFrame(w *bufio.Writer, id uint64, lead uint8, payload []byte) error {
	if len(payload)+muxFrameOverhead > MaxMessageBytes {
		return errPayloadTooBig(len(payload))
	}
	hdr, err := headerSpace(w, 4+muxFrameOverhead)
	if err != nil {
		return err
	}
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(payload)+muxFrameOverhead))
	hdr = binary.BigEndian.AppendUint64(hdr, id)
	if _, err := w.Write(append(hdr, lead)); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// readMuxFrame reads one mux frame. The payload buffer grows as bytes
// actually arrive (1 MiB steps), so a malicious length prefix cannot force a
// MaxMessageBytes allocation out of a short stream.
func readMuxFrame(r io.Reader) (id uint64, lead uint8, payload []byte, err error) {
	var hdr [4 + muxFrameOverhead]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n < muxFrameOverhead || n > MaxMessageBytes {
		return 0, 0, nil, fmt.Errorf("rpcnet: mux frame length %d out of range", n)
	}
	id = binary.BigEndian.Uint64(hdr[4:12])
	lead = hdr[12]
	body := int(n) - muxFrameOverhead
	const chunk = 1 << 20
	if body <= chunk {
		payload = make([]byte, body)
		if _, err := io.ReadFull(r, payload); err != nil {
			return 0, 0, nil, err
		}
		return id, lead, payload, nil
	}
	payload = make([]byte, 0, chunk)
	for len(payload) < body {
		step := body - len(payload)
		if step > chunk {
			step = chunk
		}
		off := len(payload)
		payload = append(payload, make([]byte, step)...)
		if _, err := io.ReadFull(r, payload[off:]); err != nil {
			return 0, 0, nil, err
		}
	}
	return id, lead, payload, nil
}

// muxServerConcurrency bounds the handler goroutines running per mux
// connection; requests beyond it queue in the read loop, applying
// backpressure through TCP.
const muxServerConcurrency = 64

// muxResponse is one handler result queued for a connection's writer.
type muxResponse struct {
	id      uint64
	status  uint8
	payload []byte
}

// serveMuxConn serves one multiplexed connection: the read loop dispatches
// each request frame to a handler goroutine (bounded by
// muxServerConcurrency), and a single writer goroutine streams responses
// back — out of order when handlers finish out of order — coalescing every
// response already waiting into one flush.
func (s *Server) serveMuxConn(conn net.Conn, br *bufio.Reader) {
	respCh := make(chan muxResponse, muxServerConcurrency)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		bw := bufio.NewWriter(conn)
		broken := false
		// Each response carries an active-counter reference taken when its
		// request started; the writer releases it once the response frame is
		// flushed (or abandoned on a broken connection), so Drain's
		// zero-active condition means every answer actually left the buffer.
		unflushed := int64(0)
		write := func(r muxResponse) {
			if broken {
				s.active.Add(-1) // drain so handlers never block on a dead writer
				return
			}
			if writeMuxFrame(bw, r.id, r.status, r.payload) != nil {
				broken = true
				conn.Close()
				s.active.Add(-1)
				return
			}
			unflushed++
		}
		for resp := range respCh {
			write(resp)
			coalesce := true
			for coalesce {
				select {
				case more, ok := <-respCh:
					if !ok {
						bw.Flush()
						s.active.Add(-unflushed)
						return
					}
					write(more)
				default:
					coalesce = false
				}
			}
			if !broken && bw.Flush() != nil {
				broken = true
				conn.Close()
			}
			s.active.Add(-unflushed)
			unflushed = 0
		}
	}()
	sem := make(chan struct{}, muxServerConcurrency)
	var wg sync.WaitGroup
	for {
		id, msgType, payload, err := readMuxFrame(br)
		if err != nil {
			break // connection closed or malformed stream
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(id uint64, msgType uint8, payload []byte) {
			defer wg.Done()
			defer func() { <-sem }()
			// The counter reference travels with the response into respCh;
			// the writer goroutine releases it after the flush.
			s.active.Add(1)
			resp, herr := s.handler(msgType, payload)
			status := uint8(0)
			if herr != nil {
				status = 1
				resp = []byte(herr.Error())
			}
			respCh <- muxResponse{id: id, status: status, payload: resp}
		}(id, msgType, payload)
	}
	wg.Wait()
	close(respCh)
	<-writerDone
}

// MuxOptions configures a multiplexed connection.
type MuxOptions struct {
	// DialTimeout bounds the dial (and the magic write); zero means none.
	DialTimeout time.Duration
	// CallTimeout is the per-call response deadline. A call that exceeds it
	// poisons the connection — an unresponsive daemon costs the in-flight
	// window, never a wedged client. Zero disables.
	CallTimeout time.Duration
	// Window caps the in-flight (sent, unanswered) calls sharing the
	// connection; zero selects DefaultWindow.
	Window int
}

func (o *MuxOptions) window() int {
	if o.Window <= 0 {
		return DefaultWindow
	}
	return o.Window
}

// muxReply is one response (or terminal failure) delivered to a waiter.
type muxReply struct {
	status  uint8
	payload []byte
	err     error
}

// muxRequest is one frame queued for the writer goroutine. The payload must
// not be mutated after submission.
type muxRequest struct {
	id      uint64
	msgType uint8
	payload []byte
}

// MuxConn is one multiplexed connection: many concurrent CallContexts share
// the socket, paired to responses by request ID. Transport errors poison the
// connection (every pending and future call fails); context cancellation
// abandons only the cancelled call. Use a MuxClient for automatic redial
// after poisoning.
type MuxConn struct {
	conn    net.Conn
	writeCh chan muxRequest
	window  chan struct{}
	timeout time.Duration

	mu      sync.Mutex
	pending map[uint64]chan muxReply
	nextID  uint64
	failure error // terminal; set once
	done    chan struct{}
}

// DialMux opens a multiplexed connection: it dials, sends the protocol
// magic, and starts the connection's writer and reader goroutines.
func DialMux(addr string, opts MuxOptions) (*MuxConn, error) {
	conn, err := net.DialTimeout("tcp", addr, opts.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("rpcnet: dial %s: %w", addr, err)
	}
	if opts.DialTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(opts.DialTimeout))
	}
	if _, err := conn.Write([]byte(muxMagic)); err != nil {
		conn.Close()
		return nil, fmt.Errorf("rpcnet: mux handshake with %s: %w", addr, err)
	}
	conn.SetWriteDeadline(time.Time{})
	w := opts.window()
	m := &MuxConn{
		conn:    conn,
		writeCh: make(chan muxRequest, w),
		window:  make(chan struct{}, w),
		timeout: opts.CallTimeout,
		pending: make(map[uint64]chan muxReply),
		done:    make(chan struct{}),
	}
	go m.writeLoop()
	go m.readLoop()
	return m, nil
}

// writeLoop is the connection's single writer: it drains queued requests,
// coalescing every frame already waiting into one buffered flush — many
// logical calls, one syscall.
func (m *MuxConn) writeLoop() {
	bw := bufio.NewWriter(m.conn)
	for {
		select {
		case <-m.done:
			return
		case req := <-m.writeCh:
			if err := writeMuxFrame(bw, req.id, req.msgType, req.payload); err != nil {
				m.fail(fmt.Errorf("rpcnet: write: %w", err))
				return
			}
			coalesce := true
			for coalesce {
				select {
				case req = <-m.writeCh:
					if err := writeMuxFrame(bw, req.id, req.msgType, req.payload); err != nil {
						m.fail(fmt.Errorf("rpcnet: write: %w", err))
						return
					}
				default:
					coalesce = false
				}
			}
			if err := bw.Flush(); err != nil {
				m.fail(fmt.Errorf("rpcnet: flush: %w", err))
				return
			}
		}
	}
}

// readLoop is the connection's single reader: it pairs every response frame
// with its pending call. A response for an abandoned (cancelled) call is
// discarded; an ID that was never issued is protocol corruption and poisons
// the connection.
func (m *MuxConn) readLoop() {
	br := bufio.NewReader(m.conn)
	for {
		id, status, payload, err := readMuxFrame(br)
		if err != nil {
			m.fail(fmt.Errorf("rpcnet: read: %w", err))
			return
		}
		m.mu.Lock()
		ch, ok := m.pending[id]
		if ok {
			delete(m.pending, id)
		} else if id >= m.nextID {
			m.mu.Unlock()
			m.fail(fmt.Errorf("rpcnet: response for request ID %d that was never sent", id))
			return
		}
		m.mu.Unlock()
		if ok {
			ch <- muxReply{status: status, payload: payload} // buffered; never blocks
		}
	}
}

// fail poisons the connection once: the terminal error is recorded, every
// pending call is failed, and the socket is closed (unblocking both loops).
func (m *MuxConn) fail(err error) {
	m.mu.Lock()
	if m.failure == nil {
		m.failure = err
		close(m.done)
		for id, ch := range m.pending {
			delete(m.pending, id)
			ch <- muxReply{err: err}
		}
	}
	m.mu.Unlock()
	m.conn.Close()
}

// Broken reports whether the connection has been poisoned or closed.
func (m *MuxConn) Broken() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.failure != nil
}

// Close poisons the connection with ErrConnClosed: pending calls fail, the
// socket closes, and both goroutines exit. Idempotent.
func (m *MuxConn) Close() { m.fail(ErrConnClosed) }

// err returns the terminal failure (nil while healthy).
func (m *MuxConn) err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.failure
}

// Call is CallContext with no cancellation.
func (m *MuxConn) Call(msgType uint8, payload []byte) ([]byte, error) {
	return m.CallContext(context.Background(), msgType, payload)
}

// CallContext issues one logical call over the shared socket: it acquires an
// in-flight window slot, queues the request frame, and waits for the
// matching response. The payload must not be mutated until the call returns.
// Application errors surface as *RemoteError and leave the connection
// usable. Cancelling the context abandons the call — the response, when it
// arrives, is discarded — and also leaves the connection usable. Exceeding
// the configured call timeout poisons the connection, as the server is
// presumed hung mid-stream.
func (m *MuxConn) CallContext(ctx context.Context, msgType uint8, payload []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	select {
	case m.window <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-m.done:
		return nil, m.err()
	}
	defer func() { <-m.window }()

	m.mu.Lock()
	if m.failure != nil {
		err := m.failure
		m.mu.Unlock()
		return nil, err
	}
	id := m.nextID
	m.nextID++
	ch := make(chan muxReply, 1)
	m.pending[id] = ch
	m.mu.Unlock()

	select {
	case m.writeCh <- muxRequest{id: id, msgType: msgType, payload: payload}:
	case <-ctx.Done():
		m.abandon(id)
		return nil, ctx.Err()
	case <-m.done:
		m.abandon(id)
		return nil, m.err()
	}

	var timeoutC <-chan time.Time
	if m.timeout > 0 {
		t := time.NewTimer(m.timeout)
		defer t.Stop()
		timeoutC = t.C
	}
	select {
	case rep := <-ch:
		if rep.err != nil {
			return nil, rep.err
		}
		if rep.status != 0 {
			return nil, &RemoteError{Msg: string(rep.payload)}
		}
		return rep.payload, nil
	case <-ctx.Done():
		m.abandon(id)
		return nil, ctx.Err()
	case <-timeoutC:
		err := &errCallTimeout{d: m.timeout}
		m.fail(err)
		return nil, err
	}
}

// abandon withdraws a cancelled call's pending entry; a response already
// claimed by the reader lands in the call's buffered channel and is GC'd.
func (m *MuxConn) abandon(id uint64) {
	m.mu.Lock()
	delete(m.pending, id)
	m.mu.Unlock()
}

// MuxClient keeps one multiplexed connection to a server, redialing
// transparently after the connection is poisoned — the mux counterpart of a
// Pool, except that concurrency shares the single socket's in-flight window
// instead of checking out sockets.
type MuxClient struct {
	addr string
	opts MuxOptions

	mu     sync.Mutex
	conn   *MuxConn
	closed bool
}

// NewMuxClient builds a client for addr. No connection is dialed until the
// first call.
func NewMuxClient(addr string, opts MuxOptions) *MuxClient {
	return &MuxClient{addr: addr, opts: opts}
}

// current returns the live connection, dialing a fresh one if the previous
// was poisoned. Dials serialize on the client mutex so one daemon restart
// costs one redial, not a thundering herd.
func (c *MuxClient) current() (*MuxConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrPoolClosed
	}
	if c.conn != nil && !c.conn.Broken() {
		return c.conn, nil
	}
	conn, err := DialMux(c.addr, c.opts)
	if err != nil {
		return nil, err
	}
	c.conn = conn
	return conn, nil
}

// Call is CallContext with no cancellation.
func (c *MuxClient) Call(msgType uint8, payload []byte) ([]byte, error) {
	return c.CallContext(context.Background(), msgType, payload)
}

// CallContext issues one call over the shared multiplexed connection; see
// MuxConn.CallContext for the window, cancellation and poisoning semantics.
func (c *MuxClient) CallContext(ctx context.Context, msgType uint8, payload []byte) ([]byte, error) {
	conn, err := c.current()
	if err != nil {
		return nil, err
	}
	return conn.CallContext(ctx, msgType, payload)
}

// Close closes the live connection and fails subsequent calls. Idempotent.
func (c *MuxClient) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}
