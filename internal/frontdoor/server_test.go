package frontdoor

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"absort/internal/concentrator"
	"absort/internal/serve"
)

func startServer(t *testing.T, cfg Config) (*FrontDoor, *Server) {
	t.Helper()
	fd := New(cfg)
	srv, err := NewServer(fd, "127.0.0.1:0")
	if err != nil {
		fd.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); fd.Close() })
	return fd, srv
}

// TestWireEndToEnd drives the acceptance workload in-process: 4 tenants
// of different shapes × 16 connections, each pipelining a mixed
// permute/concentrate/sortwords stream, with every response verified —
// zero dropped, zero wrong. Fail-fast busy responses are retried (they
// are admission control, not drops).
func TestWireEndToEnd(t *testing.T) {
	_, srv := startServer(t, Config{QueueDepth: 256, IdleTTL: time.Hour, AdaptEvery: 50 * time.Millisecond})
	specs := map[string]TenantSpec{
		"mux64":    {N: 64, Engine: concentrator.MuxMerger},
		"prefix32": {N: 32, Engine: concentrator.PrefixAdder},
		"fish128":  {N: 128, Engine: concentrator.Fish},
		"rank16":   {N: 16, Engine: concentrator.Ranking},
	}
	ids := []string{"mux64", "prefix32", "fish128", "rank16"}
	const connsPerTenant = 4 // 4 tenants × 4 conns = 16 connections
	const reqsPerConn = 25

	var wg sync.WaitGroup
	var wrong, busyRetries atomic.Int64
	errCh := make(chan error, 64)
	for _, id := range ids {
		for c := 0; c < connsPerTenant; c++ {
			wg.Add(1)
			go func(id string, seed int64) {
				defer wg.Done()
				spec := specs[id]
				cl, err := Dial(srv.Addr().String())
				if err != nil {
					errCh <- err
					return
				}
				defer cl.Close()
				if err := cl.Register(id, spec); err != nil {
					errCh <- err
					return
				}
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < reqsPerConn; i++ {
					switch i % 3 {
					case 0:
						dest := rng.Perm(spec.N)
						perm, err := retryBusy(&busyRetries, func() ([]int, error) { return cl.Permute(id, dest) })
						if err != nil {
							errCh <- err
							return
						}
						for in, d := range dest {
							if perm[d] != in {
								wrong.Add(1)
							}
						}
					case 1:
						marked := make([]bool, spec.N)
						want := 0
						for j := range marked {
							if rng.Intn(2) == 0 {
								marked[j] = true
								want++
							}
						}
						type cres struct {
							perm  []int
							count int
						}
						res, err := retryBusy(&busyRetries, func() (cres, error) {
							perm, count, err := cl.Concentrate(id, marked)
							return cres{perm, count}, err
						})
						if err != nil {
							errCh <- err
							return
						}
						if res.count != want {
							wrong.Add(1)
						}
						for j := 0; j < res.count; j++ {
							if !marked[res.perm[j]] {
								wrong.Add(1)
							}
						}
					default:
						keys := make([]uint64, spec.N)
						for j := range keys {
							keys[j] = rng.Uint64()
						}
						sorted, err := retryBusy(&busyRetries, func() ([]uint64, error) { return cl.SortWords(id, keys) })
						if err != nil {
							errCh <- err
							return
						}
						for j := 1; j < len(sorted); j++ {
							if sorted[j-1] > sorted[j] {
								wrong.Add(1)
							}
						}
					}
				}
			}(id, int64(100+len(id)*10+c))
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if w := wrong.Load(); w != 0 {
		t.Fatalf("%d wrong responses", w)
	}
}

// retryBusy retries a call while it fails fast with ErrTenantQueueFull.
func retryBusy[T any](n *atomic.Int64, call func() (T, error)) (T, error) {
	for {
		v, err := call()
		if !errors.Is(err, ErrTenantQueueFull) {
			return v, err
		}
		n.Add(1)
		time.Sleep(time.Millisecond)
	}
}

// TestClientPipelining fires many concurrent calls down ONE connection;
// the reqID matching must route every out-of-order response to its
// caller.
func TestClientPipelining(t *testing.T) {
	_, srv := startServer(t, Config{QueueDepth: 256, IdleTTL: time.Hour, AdaptEvery: time.Hour})
	cl, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const n = 64
	if err := cl.Register("p", TenantSpec{N: n, Engine: concentrator.MuxMerger}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			dest := rng.Perm(n)
			perm, err := retryBusy(new(atomic.Int64), func() ([]int, error) { return cl.Permute("p", dest) })
			if err != nil {
				errs <- err
				return
			}
			for in, d := range dest {
				if perm[d] != in {
					errs <- errors.New("wrong response routed to caller")
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestServerGracefulDrain pins the Close contract: requests in flight
// when Close starts still get their responses — the reader stops, the
// pending futures resolve, the writer flushes, and only then does the
// connection drop.
func TestServerGracefulDrain(t *testing.T) {
	fd := New(Config{Workers: 1, QueueDepth: 32, IdleTTL: time.Hour, AdaptEvery: time.Hour})
	defer fd.Close()
	release := make(chan struct{})
	var held atomic.Bool
	fd.testBeforeRun = func() {
		if held.CompareAndSwap(false, true) {
			<-release
		}
	}
	srv, err := NewServer(fd, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const n = 64
	if err := cl.Register("g", TenantSpec{N: n, Engine: concentrator.MuxMerger}); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(42))
	const inflight = 5
	type result struct {
		perm []int
		dest []int
		err  error
	}
	results := make(chan result, inflight)
	for i := 0; i < inflight; i++ {
		dest := rng.Perm(n)
		go func(dest []int) {
			perm, err := cl.Permute("g", dest)
			results <- result{perm, dest, err}
		}(dest)
	}
	// Wait until every request is admitted server-side (the held
	// dispatcher keeps them from finishing), then Close mid-flight.
	deadline := time.Now().Add(10 * time.Second)
	for fd.Stats().Submitted < inflight {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d admitted", fd.Stats().Submitted, inflight)
		}
		time.Sleep(time.Millisecond)
	}
	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	close(release)
	<-closed

	for i := 0; i < inflight; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("in-flight request lost to Close: %v", r.err)
		}
		for in, d := range r.dest {
			if r.perm[d] != in {
				t.Fatalf("wrong response after drain")
			}
		}
	}
	if _, err := Dial(srv.Addr().String()); err == nil {
		t.Fatal("dial succeeded after Close")
	}
}

// TestWireErrors pins the typed error surface: unknown tenants and bad
// registrations come back as RemoteError; a routing-level error (a
// non-permutation destination) resolves the call, not the connection.
func TestWireErrors(t *testing.T) {
	_, srv := startServer(t, Config{QueueDepth: 8, IdleTTL: time.Hour, AdaptEvery: time.Hour})
	cl, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var re *RemoteError
	if _, err := cl.Permute("ghost", make([]int, 8)); !errors.As(err, &re) {
		t.Fatalf("unknown tenant: %v, want RemoteError", err)
	}
	if err := cl.Register("bad", TenantSpec{N: 6, Engine: concentrator.MuxMerger}); !errors.As(err, &re) {
		t.Fatalf("bad register: %v, want RemoteError", err)
	}
	if err := cl.Register("ok", TenantSpec{N: 8, Engine: concentrator.MuxMerger}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Register("ok", TenantSpec{N: 8, Engine: concentrator.MuxMerger}); err != nil {
		t.Fatalf("re-register not idempotent: %v", err)
	}
	if _, err := cl.Permute("ok", make([]int, 8)); !errors.As(err, &re) {
		t.Fatalf("non-permutation dest: %v, want RemoteError", err)
	}
	// The connection survives the errors.
	dest := rand.New(rand.NewSource(1)).Perm(8)
	perm, err := cl.Permute("ok", dest)
	if err != nil {
		t.Fatal(err)
	}
	for in, d := range dest {
		if perm[d] != in {
			t.Fatal("wrong perm after error traffic")
		}
	}
}

// TestWireSortWordsMatchesLocal cross-checks the wire path against the
// in-process API on identical inputs.
func TestWireSortWordsMatchesLocal(t *testing.T) {
	fd, srv := startServer(t, Config{QueueDepth: 32, IdleTTL: time.Hour, AdaptEvery: time.Hour})
	cl, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const n = 32
	spec := TenantSpec{N: n, Engine: concentrator.PrefixAdder}
	if err := cl.Register("x", spec); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64() % 1000
	}
	viaWire, err := cl.SortWords("x", keys)
	if err != nil {
		t.Fatal(err)
	}
	fut, err := fd.Submit(context.Background(), "x", serve.Request{Kind: serve.SortWords, Keys: keys})
	if err != nil {
		t.Fatal(err)
	}
	local, err := fut.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := range viaWire {
		if viaWire[i] != local.Keys[i] {
			t.Fatalf("wire[%d]=%d != local %d", i, viaWire[i], local.Keys[i])
		}
	}
}

// TestCloseWithNonReadingPeer pins the bounds on a peer that pipelines
// requests and never reads a response. Over net.Pipe, which buffers
// nothing, the connection's writer blocks on its first write, so:
//   - the reader stops at maxConnInFlight unwritten responses and the
//     peer's writes block;
//   - the pending response bytes stay within maxConnInFlight × the
//     largest response frame;
//   - Close still returns, once the closeWriteGrace write deadline
//     fails the blocked writer.
func TestCloseWithNonReadingPeer(t *testing.T) {
	fd, srv := startServer(t, Config{QueueDepth: 64, IdleTTL: time.Hour, AdaptEvery: time.Hour})
	const n = 64
	if err := fd.Register("r", TenantSpec{N: n, Engine: concentrator.MuxMerger}); err != nil {
		t.Fatal(err)
	}
	peer, nc := net.Pipe()
	defer peer.Close()
	if !srv.serveConn(nc) {
		t.Fatal("server refused the connection before Close")
	}
	srv.mu.Lock()
	c := srv.conns[nc]
	srv.mu.Unlock()
	var sent atomic.Int64
	go func() { // pipeline requests, never read; ends when the server hangs up
		rng := rand.New(rand.NewSource(5))
		var buf []byte
		for i := uint64(1); ; i++ {
			buf, _ = appendFrame(buf[:0], permFrame(i, "r", rng.Perm(n)))
			if _, err := peer.Write(buf); err != nil {
				return
			}
			sent.Add(1)
		}
	}()
	inFlight := func() (int, int) {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.inFlight, len(c.pending)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if k, _ := inFlight(); k == maxConnInFlight {
			break
		}
		if time.Now().After(deadline) {
			k, _ := inFlight()
			t.Fatalf("reader did not reach the in-flight cap: %d of %d", k, maxConnInFlight)
		}
		time.Sleep(time.Millisecond)
	}
	// The peer counts a frame only after its Write returns, so the last
	// count can land after the reader reaches the cap: wait until two
	// samples 10 ms apart agree before taking the baseline.
	for prev := sent.Load(); ; {
		time.Sleep(10 * time.Millisecond)
		cur := sent.Load()
		if cur == prev {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("peer never stopped writing: %d then %d frames", prev, cur)
		}
		prev = cur
	}
	// A request frame and a permute response frame have the same size.
	respBytes := len(must(appendFrame(nil, permFrame(0, "r", make([]int, n)))))
	// The reader's buffer may hold whole frames it has not acquired yet.
	maxSent := int64(maxConnInFlight + 64<<10/respBytes + 1)
	before := sent.Load()
	time.Sleep(100 * time.Millisecond)
	k, pending := inFlight()
	if after := sent.Load(); after != before || after > maxSent || k != maxConnInFlight {
		t.Fatalf("reader did not stop at the cap: peer wrote %d then %d frames (bound %d), %d in flight",
			before, after, maxSent, k)
	}
	if pending > maxConnInFlight*respBytes {
		t.Fatalf("pending responses %d bytes, over %d × %d", pending, maxConnInFlight, respBytes)
	}
	closed := make(chan struct{})
	start := time.Now()
	go func() { srv.Close(); close(closed) }()
	select {
	case <-closed:
		t.Logf("Close returned after %v", time.Since(start))
	case <-time.After(closeWriteGrace + 5*time.Second):
		t.Fatal("Close did not return: the writer is still blocked on a peer that never reads")
	}
}

// TestWriteDeadlineNonReadingPeer pins the write deadline: over
// net.Pipe, a peer that pipelines requests and never reads blocks the
// connection's writer, which fails its write within the shortened idle
// timeout and closes the connection without Server.Close; a later
// Close then has nothing left to drain.
func TestWriteDeadlineNonReadingPeer(t *testing.T) {
	fd, srv := startServer(t, Config{QueueDepth: 64, IdleTTL: time.Hour, AdaptEvery: time.Hour})
	const n, idle = 64, 200 * time.Millisecond
	setLimits(srv, idle, maxConns)
	if err := fd.Register("r", TenantSpec{N: n, Engine: concentrator.MuxMerger}); err != nil {
		t.Fatal(err)
	}
	peer, nc := net.Pipe()
	defer peer.Close()
	if !srv.serveConn(nc) {
		t.Fatal("server refused the connection")
	}
	hungUp := make(chan struct{})
	go func() { // pipeline requests, never read; ends when the server hangs up
		defer close(hungUp)
		rng := rand.New(rand.NewSource(7))
		var buf []byte
		for i := uint64(1); ; i++ {
			buf, _ = appendFrame(buf[:0], permFrame(i, "r", rng.Perm(n)))
			if _, err := peer.Write(buf); err != nil {
				return
			}
		}
	}()
	start := time.Now()
	for {
		srv.mu.Lock()
		open := len(srv.conns)
		srv.mu.Unlock()
		if open == 0 {
			break
		}
		if time.Since(start) > 10*idle {
			t.Fatalf("connection still open %v into a peer that never reads (idle %v)", time.Since(start), idle)
		}
		time.Sleep(time.Millisecond)
	}
	<-hungUp
	start = time.Now()
	srv.Close()
	if d := time.Since(start); d > closeWriteGrace/2 {
		t.Fatalf("Close took %v after the connection had closed", d)
	}
}

// TestWriteDeadlineSlowReader pins that the write deadline bounds a
// write's lack of progress, not its length: over net.Pipe a peer
// pipelines 40 requests, then reads the responses 256 bytes every 5 ms,
// so the writer's coalesced write takes several times the shortened
// idle timeout while it always makes progress. Every response must
// arrive.
func TestWriteDeadlineSlowReader(t *testing.T) {
	fd, srv := startServer(t, Config{QueueDepth: 64, IdleTTL: time.Hour, AdaptEvery: time.Hour})
	const n, reqs, idle = 64, 40, 100 * time.Millisecond
	setLimits(srv, idle, maxConns)
	if err := fd.Register("r", TenantSpec{N: n, Engine: concentrator.MuxMerger}); err != nil {
		t.Fatal(err)
	}
	peer, nc := net.Pipe()
	defer peer.Close()
	if !srv.serveConn(nc) {
		t.Fatal("server refused the connection")
	}
	sent := make(chan error, 1)
	go func() {
		rng := rand.New(rand.NewSource(7))
		var buf []byte
		for i := uint64(1); i <= reqs; i++ {
			buf, _ = appendFrame(buf, permFrame(i, "r", rng.Perm(n)))
		}
		_, err := peer.Write(buf)
		sent <- err
	}()
	start := time.Now()
	br := bufio.NewReaderSize(slowReader{peer, 256, 5 * time.Millisecond}, 16)
	for i := range reqs {
		var f frame
		if err := readFrame(br, &f); err != nil {
			t.Fatalf("response %d of %d, %v in: %v", i+1, reqs, time.Since(start), err)
		}
		if f.status != statusOK {
			t.Fatalf("response %d: status %d: %s", i+1, f.status, f.errMsg)
		}
	}
	if d := time.Since(start); d < 2*idle {
		t.Fatalf("responses read in %v, want the slow read to span over 2 × idle (%v)", d, idle)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
}

// TestCloseBoundsSlowReader pins that a progressing write does not
// outlive Close's grace: a peer reads 600 pipelined responses 256 bytes
// every 5 ms, several seconds of reading, and Close, called half a
// second in, still returns within about closeWriteGrace. The writer's
// timed-out write may not refresh its deadline once the server closes.
func TestCloseBoundsSlowReader(t *testing.T) {
	fd, srv := startServer(t, Config{QueueDepth: 1024, IdleTTL: time.Hour, AdaptEvery: time.Hour})
	const n, reqs, idle = 64, 600, 100 * time.Millisecond
	setLimits(srv, idle, maxConns)
	if err := fd.Register("r", TenantSpec{N: n, Engine: concentrator.MuxMerger}); err != nil {
		t.Fatal(err)
	}
	peer, nc := net.Pipe()
	defer peer.Close()
	if !srv.serveConn(nc) {
		t.Fatal("server refused the connection")
	}
	go func() {
		rng := rand.New(rand.NewSource(7))
		var buf []byte
		for i := uint64(1); i <= reqs; i++ {
			buf, _ = appendFrame(buf, permFrame(i, "r", rng.Perm(n)))
		}
		peer.Write(buf)
	}()
	read := make(chan int64, 1)
	go func() { // read slowly until the server hangs up
		got, _ := io.Copy(io.Discard, slowReader{peer, 256, 5 * time.Millisecond})
		read <- got
	}()
	time.Sleep(500 * time.Millisecond)
	start := time.Now()
	srv.Close()
	if d := time.Since(start); d > closeWriteGrace+time.Second {
		t.Fatalf("Close took %v with the peer still reading, want about closeWriteGrace (%v)", d, closeWriteGrace)
	}
	if got := <-read; got >= reqs*(n*8) {
		t.Fatalf("peer read %d bytes, all %d responses: the write finished before Close's grace ran out", got, reqs)
	}
}

// TestCloseGraceHoldsForLateWrite pins that a write starting after
// Close keeps Close's grace deadline: a peer sends one request and never
// reads, its dispatch is held until Close has set the connection's
// deadlines, and the writer's first write then starts. Close must
// return within about closeWriteGrace, not the idle timeout a refresh
// would push the deadline to.
func TestCloseGraceHoldsForLateWrite(t *testing.T) {
	fd := New(Config{Workers: 1, QueueDepth: 32, IdleTTL: time.Hour, AdaptEvery: time.Hour})
	defer fd.Close()
	held, release := make(chan struct{}), make(chan struct{})
	fd.testBeforeRun = func() {
		close(held)
		<-release
	}
	srv, err := NewServer(fd, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	if err := fd.Register("r", TenantSpec{N: n, Engine: concentrator.MuxMerger}); err != nil {
		t.Fatal(err)
	}
	peer, nc := net.Pipe()
	defer peer.Close()
	if !srv.serveConn(nc) {
		t.Fatal("server refused the connection")
	}
	buf, _ := appendFrame(nil, permFrame(1, "r", rand.New(rand.NewSource(7)).Perm(n)))
	if _, err := peer.Write(buf); err != nil {
		t.Fatal(err)
	}
	<-held
	closed := make(chan time.Duration, 1)
	start := time.Now()
	go func() {
		srv.Close()
		closed <- time.Since(start)
	}()
	time.Sleep(100 * time.Millisecond) // Close has marked the server closed and set its deadlines
	close(release)
	select {
	case d := <-closed:
		if d < closeWriteGrace/2 {
			t.Fatalf("Close returned after %v, before the grace for the late write", d)
		}
	case <-time.After(closeWriteGrace + 2*time.Second):
		peer.Close() // unblocks the writer so the server can finish closing
		t.Fatalf("Close still waiting %v in: the late write's deadline was pushed past the grace",
			time.Since(start))
	}
}

// slowReader reads at most chunk bytes per Read, after a pause.
type slowReader struct {
	r     io.Reader
	chunk int
	pause time.Duration
}

func (s slowReader) Read(p []byte) (int, error) {
	time.Sleep(s.pause)
	return s.r.Read(p[:min(len(p), s.chunk)])
}

// permFrame is a Permute request frame routing dest.
func permFrame(reqID uint64, tenant string, dest []int) *frame {
	words := make([]uint64, len(dest))
	for i, d := range dest {
		words[i] = uint64(d)
	}
	return &frame{reqID: reqID, kind: kindPermute, tenant: tenant, n: uint32(len(dest)), words: words}
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// roundTripRegister registers tenant over a raw connection and checks
// the response.
func roundTripRegister(t *testing.T, rw net.Conn, br *bufio.Reader, reqID uint64, tenant string) {
	t.Helper()
	f := &frame{reqID: reqID, kind: kindRegister, tenant: tenant, n: 16,
		words: []uint64{uint64(concentrator.MuxMerger), 0, 0, 0, 1}}
	if _, err := rw.Write(must(appendFrame(nil, f))); err != nil {
		t.Fatalf("write register %d: %v", reqID, err)
	}
	var resp frame
	if err := readFrame(br, &resp); err != nil {
		t.Fatalf("read register response %d: %v", reqID, err)
	}
	if resp.reqID != reqID || resp.status != statusOK {
		t.Fatalf("register response %+v, want reqID %d ok", resp, reqID)
	}
}

// setLimits shortens srv's idle timeout and connection cap. The handler
// goroutines read them after taking srv.mu in serveConn.
func setLimits(srv *Server, idle time.Duration, connCap int) {
	srv.mu.Lock()
	srv.idle, srv.connCap = idle, connCap
	srv.mu.Unlock()
}

// checkIdleClose drives one connection through the idle read deadline:
// frames sent well inside the timeout keep it open across several
// timeouts' worth of time, then silence closes it within the timeout
// plus slack.
func checkIdleClose(t *testing.T, rw net.Conn, idle time.Duration) {
	t.Helper()
	br := bufio.NewReader(rw)
	for i := uint64(1); i <= 12; i++ {
		time.Sleep(idle / 4)
		roundTripRegister(t, rw, br, i, "idle")
	}
	quiet := time.Now()
	rw.SetReadDeadline(time.Now().Add(idle + 5*time.Second))
	var f frame
	err := readFrame(br, &f)
	if ne, ok := err.(net.Error); err == nil || (ok && ne.Timeout()) {
		t.Fatalf("idle connection still open %v after its last frame: %v", time.Since(quiet), err)
	}
	// The deadline was last pushed out at most idle/2 before the last
	// frame, so the connection outlives it by about idle/2 at least.
	if waited := time.Since(quiet); waited < idle/4 {
		t.Fatalf("connection closed %v after its last frame, well inside the %v idle timeout", waited, idle)
	}
}

// TestIdleTimeoutPipe pins the idle read deadline over net.Pipe.
func TestIdleTimeoutPipe(t *testing.T) {
	_, srv := startServer(t, Config{QueueDepth: 8, IdleTTL: time.Hour, AdaptEvery: time.Hour})
	const idle = 200 * time.Millisecond
	setLimits(srv, idle, maxConns)
	peer, nc := net.Pipe()
	defer peer.Close()
	if !srv.serveConn(nc) {
		t.Fatal("server refused the connection")
	}
	checkIdleClose(t, peer, idle)
}

// TestIdleTimeoutLoopback pins the idle read deadline over TCP.
func TestIdleTimeoutLoopback(t *testing.T) {
	_, srv := startServer(t, Config{QueueDepth: 8, IdleTTL: time.Hour, AdaptEvery: time.Hour})
	const idle = 200 * time.Millisecond
	setLimits(srv, idle, maxConns)
	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	checkIdleClose(t, nc, idle)
}

// TestConnectionCap pins the connection cap: serveConn closes the
// connection past it, and the connections under it keep serving.
func TestConnectionCap(t *testing.T) {
	_, srv := startServer(t, Config{QueueDepth: 8, IdleTTL: time.Hour, AdaptEvery: time.Hour})
	const connCap = 2
	setLimits(srv, idleTimeout, connCap)
	peers := make([]net.Conn, connCap+1)
	for i := range peers {
		var nc net.Conn
		peers[i], nc = net.Pipe()
		defer peers[i].Close()
		if !srv.serveConn(nc) {
			t.Fatal("server refused a connection before Close")
		}
	}
	peers[connCap].SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := peers[connCap].Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("connection %d past the cap of %d: read %v, want EOF", connCap+1, connCap, err)
	}
	roundTripRegister(t, peers[0], bufio.NewReader(peers[0]), 1, "capped")
}

// TestNoPerRequestGoroutine pins the goroutine-free request path: with
// 256 requests in flight on one connection (held behind the
// dispatchers), the connection costs its reader and writer and nothing
// per request. The held requests then all answer.
func TestNoPerRequestGoroutine(t *testing.T) {
	fd := New(Config{Workers: 2, QueueDepth: 512, IdleTTL: time.Hour, AdaptEvery: time.Hour})
	defer fd.Close()
	release := make(chan struct{})
	fd.testBeforeRun = func() { <-release }
	srv, err := NewServer(fd, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const n, inflight = 16, 256
	if err := fd.Register("g", TenantSpec{N: n, Engine: concentrator.MuxMerger}); err != nil {
		t.Fatal(err)
	}
	peer, nc := net.Pipe()
	defer peer.Close()
	base := runtime.NumGoroutine()
	if !srv.serveConn(nc) {
		t.Fatal("server refused the connection")
	}
	rng := rand.New(rand.NewSource(3))
	dests := make(map[uint64][]int, inflight)
	var buf []byte
	for i := uint64(1); i <= inflight; i++ {
		dests[i] = rng.Perm(n)
		buf = must(appendFrame(buf, permFrame(i, "g", dests[i])))
	}
	if _, err := peer.Write(buf); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); fd.Stats().Submitted < inflight; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d admitted", fd.Stats().Submitted, inflight)
		}
		time.Sleep(time.Millisecond)
	}
	const perConn, slack = 2, 1 // reader + writer
	if grown := runtime.NumGoroutine() - base; grown > perConn+slack {
		t.Fatalf("%d requests in flight on one connection grew the goroutine count by %d, want ≤ %d",
			inflight, grown, perConn+slack)
	}
	close(release)
	br := bufio.NewReader(peer)
	for i := 0; i < inflight; i++ {
		var f frame
		if err := readFrame(br, &f); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		dest, ok := dests[f.reqID]
		if !ok || f.status != statusOK || len(f.words) != n {
			t.Fatalf("response %+v: unknown, repeated or failed", f)
		}
		delete(dests, f.reqID)
		for in, d := range dest {
			if f.words[d] != uint64(in) {
				t.Fatalf("request %d: wrong permutation", f.reqID)
			}
		}
	}
}

// TestWireDrainInvariant pins the socket-to-socket drain: 4 clients ×
// 32 pipelining callers stream verified requests at 4 tenants while the
// server and then the front door close mid-stream. Every call returns
// either a response that verifies in full or a connection error, none
// hangs, and the server writes exactly one response frame per admitted
// request (plus one per registration).
func TestWireDrainInvariant(t *testing.T) {
	fd := New(Config{QueueDepth: 256, IdleTTL: time.Hour, AdaptEvery: time.Hour})
	defer fd.Close()
	srv, err := NewServer(fd, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	specs := []TenantSpec{
		{N: 32, Engine: concentrator.PrefixAdder},
		{N: 64, Engine: concentrator.MuxMerger},
		{N: 128, Engine: concentrator.Fish},
		{N: 16, Engine: concentrator.Ranking},
	}
	const callers = 32
	var verified atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, len(specs)*callers)
	for ci, spec := range specs {
		id := fmt.Sprintf("drain%d", ci)
		cl, err := Dial(srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if err := cl.Register(id, spec); err != nil {
			t.Fatal(err)
		}
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; ; i++ {
					err := verifiedCall(cl, id, spec.N, i%3, rng)
					if err == nil {
						verified.Add(1)
						continue
					}
					if !strings.Contains(err.Error(), "connection lost") && !strings.Contains(err.Error(), "send:") {
						errs <- err
					}
					return
				}
			}(int64(ci*callers + g))
		}
	}
	for deadline := time.Now().Add(10 * time.Second); verified.Load() < 256; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d calls verified before Close", verified.Load())
		}
		time.Sleep(time.Millisecond)
	}
	srv.Close()
	fd.Close()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a call hung across Close")
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	var submitted int64
	for ci := range specs {
		st, err := fd.TenantStats(fmt.Sprintf("drain%d", ci))
		if err != nil {
			t.Fatal(err)
		}
		submitted += st.Submitted
	}
	if got, want := srv.responses.Load(), submitted+int64(len(specs)); got != want {
		t.Fatalf("server wrote %d response frames for %d admitted requests and %d registrations",
			got, submitted, len(specs))
	}
	t.Logf("%d calls verified, %d admitted", verified.Load(), submitted)
}

// verifiedCall makes one call of the given kind (0 Permute, 1
// Concentrate, 2 SortWords) with random input and verifies the
// response in full: a Permute must realize dest, a Concentrate must be
// a permutation whose first count entries are exactly the marked
// inputs, a SortWords must equal the reference-sorted keys. A wrong
// response is an error that names it.
func verifiedCall(cl *Client, id string, n, kind int, rng *rand.Rand) error {
	switch kind {
	case 0:
		dest := rng.Perm(n)
		perm, err := cl.Permute(id, dest)
		if err != nil {
			return err
		}
		for in, d := range dest {
			if len(perm) != n || perm[d] != in {
				return errors.New("wrong permute response")
			}
		}
	case 1:
		marked := make([]bool, n)
		want := 0
		for i := range marked {
			if marked[i] = rng.Intn(2) == 0; marked[i] {
				want++
			}
		}
		perm, count, err := cl.Concentrate(id, marked)
		if err != nil {
			return err
		}
		seen := make([]bool, n)
		for _, src := range perm {
			if src < 0 || src >= n || seen[src] {
				return errors.New("concentrate response is not a permutation")
			}
			seen[src] = true
		}
		if len(perm) != n || count != want {
			return errors.New("wrong concentrate count")
		}
		for _, src := range perm[:count] {
			if !marked[src] {
				return errors.New("concentrate response routes an unmarked input")
			}
		}
	default:
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = rng.Uint64()
		}
		got, err := cl.SortWords(id, keys)
		if err != nil {
			return err
		}
		slices.Sort(keys)
		if !slices.Equal(got, keys) {
			return errors.New("wrong sortwords response")
		}
	}
	return nil
}

// failingWrites is a connection whose writes all fail; its reads block
// until it is closed.
type failingWrites struct{ net.Conn }

func (failingWrites) Write([]byte) (int, error) { return 0, errors.New("injected write failure") }

// TestClientWriteErrorFailsPending pins the client's group commit on a
// write error: a caller that left its frame buffered for a waiting
// writer must not hang when that writer's flush fails — the failure
// closes the connection and the buffered caller fails through the read
// loop.
func TestClientWriteErrorFailsPending(t *testing.T) {
	peer, conn := net.Pipe()
	defer peer.Close()
	cl := newClient(failingWrites{conn})
	defer cl.Close()
	cl.writers.Add(1) // a writer "waiting": the first call leaves its frame unflushed
	first := make(chan error, 1)
	go func() {
		_, err := cl.Permute("t", []int{1, 0})
		first <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); ; {
		cl.wmu.Lock()
		buffered := cl.bw.Buffered()
		cl.wmu.Unlock()
		if buffered > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first call did not buffer its frame")
		}
		time.Sleep(time.Millisecond)
	}
	cl.writers.Add(-1)
	if _, err := cl.Permute("t", []int{0, 1}); err == nil {
		t.Fatal("call over a failing connection succeeded")
	}
	select {
	case err := <-first:
		if err == nil {
			t.Fatal("buffered call succeeded over a failing connection")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("buffered call hung after the flush failed")
	}
}

// TestRegisterWidthCap pins the server-side width cap: a Register frame
// wider than maxWireN is refused before any plan set is compiled.
func TestRegisterWidthCap(t *testing.T) {
	fd, srv := startServer(t, Config{QueueDepth: 8, IdleTTL: time.Hour, AdaptEvery: time.Hour})
	cl, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.Register("wide", TenantSpec{N: 1 << 22, Engine: concentrator.MuxMerger})
	var re *RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "exceeds") {
		t.Fatalf("Register at n=2^22: %v, want a width RemoteError", err)
	}
	if ids := fd.Tenants(); len(ids) != 0 {
		t.Fatalf("tenants %v registered, want none", ids)
	}
}
