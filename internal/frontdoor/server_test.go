package frontdoor

import (
	"context"
	"errors"
	"math/rand"
	"net"
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

// TestCloseWithNonReadingPeer pins that Close returns when a peer
// pipelines requests and never reads a response: the connection's
// writer blocks on the first flush, so the drain can only end once the
// closeWriteGrace write deadline fails the writer. Over net.Pipe, which
// buffers nothing, the writer blocks deterministically.
func TestCloseWithNonReadingPeer(t *testing.T) {
	fd, srv := startServer(t, Config{QueueDepth: 64, IdleTTL: time.Hour, AdaptEvery: time.Hour})
	const n = 64
	if err := fd.Register("r", TenantSpec{N: n, Engine: concentrator.MuxMerger}); err != nil {
		t.Fatal(err)
	}
	peer, conn := net.Pipe()
	defer peer.Close()
	if !srv.serveConn(conn) {
		t.Fatal("server refused the connection before Close")
	}
	go func() { // pipeline requests, never read; ends when the server hangs up
		rng := rand.New(rand.NewSource(5))
		for i := uint64(1); ; i++ {
			dest := rng.Perm(n)
			words := make([]uint64, n)
			for j, d := range dest {
				words[j] = uint64(d)
			}
			if writeFrame(peer, &frame{reqID: i, kind: kindPermute, tenant: "r", n: n, words: words}) != nil {
				return
			}
		}
	}()
	for deadline := time.Now().Add(10 * time.Second); fd.Stats().Completed == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no request completed")
		}
		time.Sleep(time.Millisecond)
	}
	closed := make(chan struct{})
	start := time.Now()
	go func() { srv.Close(); close(closed) }()
	select {
	case <-closed:
		t.Logf("Close returned after %v", time.Since(start))
	case <-time.After(closeWriteGrace + 10*time.Second):
		t.Fatal("Close did not return: the writer is still blocked on a peer that never reads")
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
