// The front door's TCP server: one goroutine pair per connection (a
// frame reader and a response writer) over the wire protocol of
// wire.go. A request's dispatcher encodes its response straight into
// the connection's pending buffer, and the writer sends everything that
// has accumulated in one write. Close drains gracefully: in-flight
// requests finish and their responses flush before the connection
// drops.
package frontdoor

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"absort/internal/serve"
)

// Connection limits.
const (
	// maxConns caps the connections served at once; serveConn closes any
	// connection past it.
	maxConns = 1024
	// maxConnInFlight caps the frames a connection has read whose
	// responses are not yet written to the socket. At the cap the reader
	// stops reading, so a peer that pipelines and never reads is pushed
	// back by TCP instead of growing the pending buffer.
	maxConnInFlight = 1024
	// idleTimeout closes a connection that sends nothing for this long,
	// or whose response write sends nothing for between half of it and
	// all of it (see Server.write).
	idleTimeout = 2 * time.Minute
	// maxKeptWriteBuf is the largest write buffer a connection keeps for
	// reuse; a larger one (a burst of wide responses) is dropped after
	// its write.
	maxKeptWriteBuf = 1 << 20
)

// Server serves a FrontDoor over TCP. The caller owns the FrontDoor:
// Close stops the listener and drains the connections but leaves the
// front door (and its tenants) running.
type Server struct {
	fd *FrontDoor
	ln net.Listener

	// idle and connCap are idleTimeout and maxConns; tests shorten them.
	idle    time.Duration
	connCap int

	// responses counts response frames written to the sockets.
	responses atomic.Int64

	mu     sync.Mutex
	conns  map[net.Conn]*conn
	closed bool
	wg     sync.WaitGroup
}

// conn is one served connection. The reader (handle's goroutine)
// decodes and dispatches frames; completion sinks on the dispatchers
// append encoded responses to pending; the writer goroutine swaps
// pending out and writes it whole.
type conn struct {
	nc   net.Conn
	wake chan struct{} // capacity 1: pending has frames, or the reader stopped

	mu       sync.Mutex
	room     sync.Cond // signalled when inFlight drops
	pending  []byte    // encoded responses not yet taken by the writer
	frames   int       // responses in pending
	inFlight int       // frames read whose responses are not yet written
	eof      bool      // the reader has stopped
}

// NewServer listens on addr (e.g. "127.0.0.1:7420", ":0" for an
// ephemeral port) and starts accepting connections.
func NewServer(fd *FrontDoor, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("frontdoor: listen: %w", err)
	}
	s := &Server{fd: fd, ln: ln, idle: idleTimeout, connCap: maxConns, conns: make(map[net.Conn]*conn)}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// closeWriteGrace is how long Close lets each connection keep writing
// responses: a peer that stops reading would otherwise block its
// connection's writer, and with it the drain, forever.
const closeWriteGrace = 2 * time.Second

// Close stops accepting, wakes every connection's reader, waits for
// in-flight requests to resolve and their responses to flush (for at
// most closeWriteGrace per connection), and closes the connections.
// Idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	first := !s.closed
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if first {
		s.ln.Close()
		// A read deadline in the past stops each reader at the next frame
		// boundary; the per-connection drain (pending responses, writer
		// flush) then runs its normal course until the write deadline,
		// after which the writer discards what is left.
		grace := time.Now().Add(closeWriteGrace)
		for _, c := range conns {
			c.SetReadDeadline(time.Unix(0, 1))
			c.SetWriteDeadline(grace)
		}
	}
	s.wg.Wait()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !s.serveConn(conn) {
			return
		}
	}
}

// serveConn registers nc with the drain and starts its handler; past
// the connection cap it closes nc instead. After Close it closes nc and
// reports false.
func (s *Server) serveConn(nc net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		nc.Close()
		return false
	}
	if len(s.conns) >= s.connCap {
		nc.Close()
		return true
	}
	c := &conn{nc: nc, wake: make(chan struct{}, 1)}
	c.room.L = &c.mu
	s.conns[nc] = c
	s.wg.Add(2)
	go s.handle(c)
	go func() {
		defer s.wg.Done()
		s.writeLoop(c)
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
	}()
	return true
}

// handle reads one connection's frames and dispatches them; responses
// come back through the connection's writer in completion order,
// matched by reqID. The reader stops at maxConnInFlight unwritten
// responses until the writer catches up, and on a read error — clean
// EOF, protocol error, idle timeout or server Close. It then marks the
// connection done; the writer exits once every frame read has had its
// response written (or discarded after a write error), and only then
// does the connection close: no admitted request ever loses its
// response to a teardown race.
func (s *Server) handle(c *conn) {
	defer s.wg.Done()
	br := bufio.NewReaderSize(c.nc, 64<<10)
	var refreshed time.Time // when the idle read deadline was last pushed out
	for {
		if waited := c.acquire(); waited || br.Buffered() == 0 {
			if !s.extend(&refreshed, waited, c.nc.SetReadDeadline) {
				break
			}
		}
		var f frame
		if err := readFrame(br, &f); err != nil {
			break // EOF, deadline, or protocol error
		}
		s.dispatch(c, &f)
	}
	c.mu.Lock()
	c.inFlight-- // the frame acquired for the failed read
	c.eof = true
	c.mu.Unlock()
	c.notify()
}

// extend pushes one of a connection's deadlines idle ahead through
// set, at most once per idle/2 unless force is set. The reader calls it
// before it blocks, the writer before each write. It sets the deadline
// under s.mu and only while the server is open, so a refresh never
// overwrites the deadlines Close sets once it has marked the server
// closed. It reports false once the server is closing.
func (s *Server) extend(refreshed *time.Time, force bool, set func(time.Time) error) bool {
	now := time.Now()
	if !force && now.Sub(*refreshed) < s.idle/2 {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	*refreshed = now
	set(now.Add(s.idle))
	return true
}

// write writes out whole under a write deadline pushed out by extend. A
// write that times out having sent some bytes is making progress, so it
// refreshes the deadline and writes the rest: only a write that sends
// nothing for between idle/2 and idle fails, whatever its size. Once
// the server is closing, Close's closeWriteGrace deadline stands.
func (s *Server) write(nc net.Conn, out []byte, refreshed *time.Time) error {
	s.extend(refreshed, false, nc.SetWriteDeadline)
	for {
		n, err := nc.Write(out)
		if err == nil || n == 0 || !errors.Is(err, os.ErrDeadlineExceeded) ||
			!s.extend(refreshed, true, nc.SetWriteDeadline) {
			return err
		}
		out = out[n:]
	}
}

// acquire counts one more frame in flight, first waiting while the
// connection is at maxConnInFlight; it reports whether it waited.
func (c *conn) acquire() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	waited := false
	for c.inFlight >= maxConnInFlight {
		c.room.Wait()
		waited = true
	}
	c.inFlight++
	return waited
}

// notify wakes the writer without blocking.
func (c *conn) notify() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// send appends one response frame to the connection's pending buffer
// and wakes the writer. A response the wire cannot carry goes out as
// an error frame instead, so every request read gets exactly one
// response.
func (c *conn) send(f *frame) {
	c.mu.Lock()
	var err error
	if c.pending, err = appendFrame(c.pending, f); err != nil {
		c.pending, _ = appendFrame(c.pending, &frame{reqID: f.reqID, kind: f.kind, n: f.n,
			status: statusError, errMsg: err.Error()})
	}
	c.frames++
	c.mu.Unlock()
	c.notify()
}

// writeLoop writes the connection's responses: each wake it takes the
// whole pending buffer and writes it whole, then releases those frames'
// in-flight slots. Each write runs under a write deadline (see write),
// so a peer that stops reading fails it. A write error closes the
// socket, which stops the reader at once; the writer keeps releasing
// slots but discards the bytes. It returns once the reader has stopped
// and every frame read has been answered.
func (s *Server) writeLoop(c *conn) {
	var out []byte // the buffer pending is swapped with
	var werr error
	var refreshed time.Time // when the write deadline was last pushed out
	for range c.wake {
		c.mu.Lock()
		out, c.pending = c.pending, out[:0]
		frames := c.frames
		c.frames = 0
		c.mu.Unlock()
		if len(out) > 0 && werr == nil {
			if werr = s.write(c.nc, out, &refreshed); werr == nil {
				s.responses.Add(int64(frames))
			} else {
				c.nc.Close()
			}
		}
		if cap(out) > maxKeptWriteBuf {
			out = nil
		}
		c.mu.Lock()
		c.inFlight -= frames
		done := c.eof && c.inFlight == 0
		c.mu.Unlock()
		c.room.Signal()
		if done {
			c.nc.Close()
			return
		}
	}
}

// dispatch handles one decoded request frame: Register synchronously,
// routing kinds through the front door with a completion sink that
// encodes the response onto the connection from the dispatcher. Refused
// requests (malformed, unknown tenant, busy) are answered here. The
// frame's pooled words are recycled here; the request slices decoded
// from them are recycled by the sink once Exec has returned.
func (s *Server) dispatch(c *conn, f *frame) {
	defer putWords(f.words)
	resp := frame{reqID: f.reqID, kind: f.kind, tenant: f.tenant, n: f.n}
	var err error
	if f.kind == kindRegister {
		err = s.register(f)
	} else if err = s.submit(c, f, resp); err == nil {
		return // the sink answers
	}
	if err != nil {
		resp.status, resp.errMsg = statusError, err.Error()
		if errors.Is(err, ErrTenantQueueFull) {
			resp.status = statusBusy
		}
	}
	c.send(&resp)
}

// submit admits a routing frame with a sink that answers it on c.
func (s *Server) submit(c *conn, f *frame, resp frame) error {
	req, err := requestFromFrame(f)
	if err != nil {
		return err
	}
	err = s.fd.submit(context.Background(), f.tenant, req, func(res serve.Result, err error) {
		c.respond(resp, res, err)
		recycleRequest(req)
	})
	if err != nil {
		recycleRequest(req)
	}
	return err
}

// respond encodes an admitted request's outcome onto the connection.
func (c *conn) respond(resp frame, res serve.Result, err error) {
	if err != nil {
		resp.status, resp.errMsg = statusError, err.Error()
	} else {
		resultToFrame(&resp, res)
	}
	c.send(&resp)
	putWords(resp.words)
}

// register declares the tenant of a Register frame. Re-registration of
// an existing id is idempotent success, so every connection of a tenant
// can register defensively.
func (s *Server) register(f *frame) error {
	switch {
	case len(f.words) != registerWords:
		return fmt.Errorf("frontdoor: register payload %d words, want %d", len(f.words), registerWords)
	case f.n > maxWireN:
		return fmt.Errorf("frontdoor: register width n=%d exceeds %d", f.n, maxWireN)
	}
	spec := TenantSpec{
		N:        int(f.n),
		Engine:   Engine(f.words[0]),
		K:        int(int64(f.words[1])),
		M:        int(int64(f.words[2])),
		WordBits: int(int64(f.words[3])),
		Weight:   int(int64(f.words[4])),
	}
	if err := s.fd.Register(f.tenant, spec); err != nil && !errors.Is(err, ErrTenantExists) {
		return err
	}
	return nil
}

// maxWireN is the widest network the wire serves: the largest response,
// a Concentrate's 1 + n words, still fits one frame beside the longest
// tenant id (65535 bytes). Among powers of two that is n = 2^21.
const maxWireN = (MaxFrameBytes-bodyHeaderBytes-0xFFFF)/8 - 1

// requestFromFrame converts a decoded routing frame into a
// serve.Request, copying out of the frame's words into pooled slices
// that recycleRequest returns. A width beyond maxWireN is rejected up
// front: a Concentrate bitmask packs 64 inputs per word, so without the
// cap one frame could make the server allocate 64 mask bytes for every
// payload byte it sent.
func requestFromFrame(f *frame) (serve.Request, error) {
	n := int(f.n)
	if n > maxWireN {
		return serve.Request{}, fmt.Errorf("frontdoor: frame width n=%d exceeds %d", n, maxWireN)
	}
	switch f.kind {
	case kindPermute:
		if len(f.words) != n {
			return serve.Request{}, fmt.Errorf("frontdoor: permute payload %d words, want n=%d", len(f.words), n)
		}
		dest := intPool.get(n)
		for i, w := range f.words {
			dest[i] = int(int64(w))
		}
		return serve.Request{Kind: serve.Permute, Dest: dest}, nil
	case kindConcentrate:
		if len(f.words) != maskWords(n) {
			return serve.Request{}, fmt.Errorf("frontdoor: concentrate payload %d words, want %d for n=%d",
				len(f.words), maskWords(n), n)
		}
		marked := boolPool.get(n)
		for i := range marked {
			marked[i] = f.words[i/64]>>(uint(i)%64)&1 == 1
		}
		return serve.Request{Kind: serve.Concentrate, Marked: marked}, nil
	case kindSortWords:
		if len(f.words) != n {
			return serve.Request{}, fmt.Errorf("frontdoor: sortwords payload %d words, want n=%d", len(f.words), n)
		}
		keys := getWords(n)
		copy(keys, f.words)
		return serve.Request{Kind: serve.SortWords, Keys: keys}, nil
	}
	return serve.Request{}, fmt.Errorf("frontdoor: unknown frame kind %d", f.kind)
}

// recycleRequest returns the pooled slices of a request built by
// requestFromFrame. Exec's results never alias the request, so it is
// safe once Exec has returned.
func recycleRequest(req serve.Request) {
	intPool.put(req.Dest)
	boolPool.put(req.Marked)
	putWords(req.Keys)
}

// resultToFrame serializes a routing result into resp's pooled payload:
// the realized permutation for Permute, count + permutation for
// Concentrate, sorted keys for SortWords.
func resultToFrame(resp *frame, res serve.Result) {
	switch resp.kind {
	case kindPermute:
		resp.words = getWords(len(res.Perm))
		for i, p := range res.Perm {
			resp.words[i] = uint64(p)
		}
	case kindConcentrate:
		resp.words = getWords(1 + len(res.Perm))
		resp.words[0] = uint64(res.Count)
		for i, p := range res.Perm {
			resp.words[1+i] = uint64(p)
		}
	case kindSortWords:
		resp.words = getWords(len(res.Keys))
		copy(resp.words, res.Keys)
	}
}
