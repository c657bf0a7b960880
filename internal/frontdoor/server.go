// The front door's TCP server: one goroutine pair per connection (a
// frame reader and a response writer) over the wire protocol of
// wire.go, with graceful drain on Close — in-flight requests finish and
// their responses flush before the connection drops.
package frontdoor

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"absort/internal/serve"
)

// Server serves a FrontDoor over TCP. The caller owns the FrontDoor:
// Close stops the listener and drains the connections but leaves the
// front door (and its tenants) running.
type Server struct {
	fd *FrontDoor
	ln net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer listens on addr (e.g. "127.0.0.1:7420", ":0" for an
// ephemeral port) and starts accepting connections.
func NewServer(fd *FrontDoor, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("frontdoor: listen: %w", err)
	}
	s := &Server{fd: fd, ln: ln, conns: make(map[net.Conn]struct{})}
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

// serveConn registers conn with the drain and starts its handler; after
// Close it closes conn instead and reports false.
func (s *Server) serveConn(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		conn.Close()
		return false
	}
	s.conns[conn] = struct{}{}
	s.wg.Add(1)
	go s.handle(conn)
	return true
}

// handle runs one connection: the calling goroutine reads frames and
// dispatches them; a paired writer goroutine serializes responses (which
// complete out of order) back onto the wire, flushing whenever its
// queue momentarily drains. On reader exit — clean EOF, protocol error,
// or server Close — every in-flight request is awaited, the writer
// drains and flushes, and only then does the connection close: no
// admitted request ever loses its response to a teardown race.
func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 64<<10)
	out := make(chan *frame, 128)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for f := range out {
			err := writeFrame(bw, f)
			if f.words != nil {
				putWords(f.words)
			}
			if err != nil {
				continue // drain remaining frames, recycling their buffers
			}
			if len(out) == 0 {
				bw.Flush()
			}
		}
		bw.Flush()
	}()

	var pending sync.WaitGroup
	for {
		var f frame
		if err := readFrame(br, &f); err != nil {
			break // EOF, deadline from Close, or protocol error
		}
		s.dispatch(&f, out, &pending)
	}
	pending.Wait() // every accepted request has enqueued its response
	close(out)
	<-writerDone
	conn.Close()
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// dispatch routes one decoded request frame: Register synchronously,
// routing kinds through fd.Submit with the response enqueued by a
// waiter goroutine when the Future resolves. The request frame's pooled
// words are recycled here; response frames carry their own.
func (s *Server) dispatch(f *frame, out chan<- *frame, pending *sync.WaitGroup) {
	if f.kind == kindRegister {
		resp := &frame{reqID: f.reqID, kind: f.kind, tenant: f.tenant, n: f.n}
		switch {
		case len(f.words) != registerWords:
			resp.status = statusError
			resp.errMsg = fmt.Sprintf("frontdoor: register payload %d words, want %d", len(f.words), registerWords)
		case f.n > maxWireN:
			resp.status = statusError
			resp.errMsg = fmt.Sprintf("frontdoor: register width n=%d exceeds %d", f.n, maxWireN)
		default:
			spec := TenantSpec{
				N:        int(f.n),
				Engine:   Engine(f.words[0]),
				K:        int(int64(f.words[1])),
				M:        int(int64(f.words[2])),
				WordBits: int(int64(f.words[3])),
				Weight:   int(int64(f.words[4])),
			}
			// Re-registration of an existing id is idempotent success, so
			// every connection of a tenant can register defensively.
			if err := s.fd.Register(f.tenant, spec); err != nil && !errors.Is(err, ErrTenantExists) {
				resp.status = statusError
				resp.errMsg = err.Error()
			}
		}
		putWords(f.words)
		out <- resp
		return
	}

	req, err := requestFromFrame(f)
	if f.words != nil {
		putWords(f.words)
	}
	if err != nil {
		out <- &frame{reqID: f.reqID, kind: f.kind, tenant: f.tenant, n: f.n,
			status: statusError, errMsg: err.Error()}
		return
	}
	fut, err := s.fd.Submit(context.Background(), f.tenant, req)
	if err != nil {
		st := uint8(statusError)
		if errors.Is(err, ErrTenantQueueFull) {
			st = statusBusy
		}
		out <- &frame{reqID: f.reqID, kind: f.kind, tenant: f.tenant, n: f.n,
			status: st, errMsg: err.Error()}
		return
	}
	resp := &frame{reqID: f.reqID, kind: f.kind, tenant: f.tenant, n: f.n}
	pending.Add(1)
	go func() {
		defer pending.Done()
		res, err := fut.Wait(context.Background())
		if err != nil {
			resp.status, resp.errMsg = statusError, err.Error()
		} else {
			resultToFrame(resp, res)
		}
		out <- resp
	}()
}

// maxWireN is the widest network the wire serves: the largest response,
// a Concentrate's 1 + n words, still fits one frame beside the longest
// tenant id (65535 bytes). Among powers of two that is n = 2^21.
const maxWireN = (MaxFrameBytes-bodyHeaderBytes-0xFFFF)/8 - 1

// requestFromFrame converts a decoded routing frame into a
// serve.Request, copying out of the pooled words. A width beyond
// maxWireN is rejected up front: a Concentrate bitmask packs 64 inputs
// per word, so without the cap one frame could make the server allocate
// 64 mask bytes for every payload byte it sent.
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
		dest := make([]int, n)
		for i, w := range f.words {
			dest[i] = int(int64(w))
		}
		return serve.Request{Kind: serve.Permute, Dest: dest}, nil
	case kindConcentrate:
		if len(f.words) != maskWords(n) {
			return serve.Request{}, fmt.Errorf("frontdoor: concentrate payload %d words, want %d for n=%d",
				len(f.words), maskWords(n), n)
		}
		marked := make([]bool, n)
		for i := range marked {
			marked[i] = f.words[i/64]>>(uint(i)%64)&1 == 1
		}
		return serve.Request{Kind: serve.Concentrate, Marked: marked}, nil
	case kindSortWords:
		if len(f.words) != n {
			return serve.Request{}, fmt.Errorf("frontdoor: sortwords payload %d words, want n=%d", len(f.words), n)
		}
		keys := make([]uint64, n)
		copy(keys, f.words)
		return serve.Request{Kind: serve.SortWords, Keys: keys}, nil
	}
	return serve.Request{}, fmt.Errorf("frontdoor: unknown frame kind %d", f.kind)
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
