// The front door's TCP client: a pipelined connection to a Server.
// Every call writes one request frame and blocks on its response, but
// calls from concurrent goroutines share the connection — a single read
// loop matches out-of-order responses back to callers by reqID — so one
// connection sustains many in-flight requests. Concurrent calls also
// share writes: a caller that sees another waiting to write leaves its
// frame buffered, and the last writer of the group flushes them all.
package frontdoor

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
)

// RemoteError is a statusError response from the server: the request
// was received and refused (unknown tenant, malformed payload, routing
// error). Busy responses (fail-fast full tenant queue) surface as
// ErrTenantQueueFull instead — they are retryable, RemoteError is not.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "frontdoor: remote: " + e.Msg }

// Client is one pipelined front-door connection. Safe for concurrent
// use.
type Client struct {
	conn net.Conn

	wmu     sync.Mutex // serializes frame writes
	bw      *bufio.Writer
	writers atomic.Int32 // callers waiting for or holding wmu

	pmu     sync.Mutex
	pending map[uint64]chan *frame
	closed  bool

	nextID   atomic.Uint64
	readDone chan struct{}
	readErr  error // set before readDone closes
}

// Dial connects to a front-door server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("frontdoor: dial: %w", err)
	}
	return newClient(conn), nil
}

// newClient starts a client on an established connection.
func newClient(conn net.Conn) *Client {
	c := &Client{
		conn:     conn,
		bw:       bufio.NewWriterSize(conn, 64<<10),
		pending:  make(map[uint64]chan *frame),
		readDone: make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// Close tears the connection down. In-flight calls fail with the
// connection error. Idempotent.
func (c *Client) Close() error {
	c.pmu.Lock()
	c.closed = true
	c.pmu.Unlock()
	return c.conn.Close()
}

func (c *Client) readLoop() {
	br := bufio.NewReaderSize(c.conn, 64<<10)
	for {
		f := &frame{}
		if err := readFrame(br, f); err != nil {
			c.readErr = fmt.Errorf("frontdoor: connection lost: %w", err)
			close(c.readDone)
			return
		}
		c.pmu.Lock()
		ch := c.pending[f.reqID]
		delete(c.pending, f.reqID)
		c.pmu.Unlock()
		if ch != nil {
			ch <- f
		} else if f.words != nil {
			putWords(f.words) // response to an abandoned call
		}
	}
}

// call sends one request frame and blocks for its response. The
// response's pooled words (if any) are owned by the caller.
func (c *Client) call(f *frame) (*frame, error) {
	f.reqID = c.nextID.Add(1)
	ch := make(chan *frame, 1)
	c.pmu.Lock()
	if c.closed {
		c.pmu.Unlock()
		return nil, fmt.Errorf("frontdoor: client closed")
	}
	c.pending[f.reqID] = ch
	c.pmu.Unlock()

	if err := c.send(f); err != nil {
		c.pmu.Lock()
		delete(c.pending, f.reqID)
		c.pmu.Unlock()
		return nil, fmt.Errorf("frontdoor: send: %w", err)
	}

	select {
	case r := <-ch:
		switch r.status {
		case statusOK:
			return r, nil
		case statusBusy:
			// Fail-fast admission: retryable, typed like the local API.
			return nil, ErrTenantQueueFull
		default:
			return nil, &RemoteError{Msg: r.errMsg}
		}
	case <-c.readDone:
		return nil, c.readErr
	}
}

// send writes one request frame. It flushes only when no other caller
// is waiting to write: each writer raises writers before taking wmu and
// checks it after buffering its frame, so the last writer of a group
// always flushes. A write or flush error closes the connection — a
// frame an earlier caller buffered may be lost with it — so every
// pending call fails through readDone instead of waiting forever.
func (c *Client) send(f *frame) error {
	c.writers.Add(1)
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.writers.Add(-1)
	buf, err := appendFrame(c.bw.AvailableBuffer(), f)
	var werr error
	if err == nil {
		_, werr = c.bw.Write(buf)
	}
	if werr == nil && c.writers.Load() == 0 {
		werr = c.bw.Flush()
	}
	if werr != nil {
		c.conn.Close()
		return werr
	}
	return err
}

// Register declares a tenant on the server. Re-registering an existing
// id succeeds (the server treats it as idempotent), so every connection
// can register its tenant defensively.
func (c *Client) Register(tenant string, spec TenantSpec) error {
	words := getWords(registerWords)
	words[0] = uint64(spec.Engine)
	words[1] = uint64(int64(spec.K))
	words[2] = uint64(int64(spec.M))
	words[3] = uint64(int64(spec.WordBits))
	words[4] = uint64(int64(spec.Weight))
	f := frame{kind: kindRegister, tenant: tenant, n: uint32(spec.N), words: words}
	r, err := c.call(&f)
	putWords(words)
	if err != nil {
		return err
	}
	if r.words != nil {
		putWords(r.words)
	}
	return nil
}

// Permute routes dest (input i goes to output dest[i]) through the
// tenant's plan set, returning the realized permutation in
// receives-from form.
func (c *Client) Permute(tenant string, dest []int) ([]int, error) {
	words := getWords(len(dest))
	for i, d := range dest {
		words[i] = uint64(int64(d))
	}
	f := frame{kind: kindPermute, tenant: tenant, n: uint32(len(dest)), words: words}
	r, err := c.call(&f)
	putWords(words)
	if err != nil {
		return nil, err
	}
	perm := make([]int, len(r.words))
	for i, w := range r.words {
		perm[i] = int(int64(w))
	}
	if r.words != nil {
		putWords(r.words)
	}
	return perm, nil
}

// Concentrate routes the marked pattern, returning the realized
// permutation and the concentrated count.
func (c *Client) Concentrate(tenant string, marked []bool) ([]int, int, error) {
	words := getWords(maskWords(len(marked)))
	for i := range words {
		words[i] = 0
	}
	for i, m := range marked {
		if m {
			words[i/64] |= 1 << (uint(i) % 64)
		}
	}
	f := frame{kind: kindConcentrate, tenant: tenant, n: uint32(len(marked)), words: words}
	r, err := c.call(&f)
	putWords(words)
	if err != nil {
		return nil, 0, err
	}
	if len(r.words) < 1 {
		putWords(r.words)
		return nil, 0, &RemoteError{Msg: "empty concentrate response"}
	}
	count := int(int64(r.words[0]))
	perm := make([]int, len(r.words)-1)
	for i, w := range r.words[1:] {
		perm[i] = int(int64(w))
	}
	putWords(r.words)
	return perm, count, nil
}

// SortWords sorts keys through the tenant's plan set.
func (c *Client) SortWords(tenant string, keys []uint64) ([]uint64, error) {
	words := getWords(len(keys))
	copy(words, keys)
	f := frame{kind: kindSortWords, tenant: tenant, n: uint32(len(keys)), words: words}
	r, err := c.call(&f)
	putWords(words)
	if err != nil {
		return nil, err
	}
	sorted := make([]uint64, len(r.words))
	copy(sorted, r.words)
	if r.words != nil {
		putWords(r.words)
	}
	return sorted, nil
}
