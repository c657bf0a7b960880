package serve

// Regression tests for the serve bugfix sweep: the torn-snapshot stats
// invariant, the admission-order run rule across request kinds, the
// Submit-during-Close backpressure race, and Future.Wait's
// resolution-beats-cancellation guarantee.

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"absort/internal/concentrator"
)

// TestStatsTornSnapshotInvariant hammers Stats() under concurrent
// submission and resolution: every snapshot, however torn, must satisfy
// Submitted ≥ Completed + InFlight (and InFlight ≥ 0). Before the fix,
// Submitted was incremented after the queue send and loaded before
// Completed, so a worker racing ahead of its submitter produced
// snapshots with Submitted < Completed.
func TestStatsTornSnapshotInvariant(t *testing.T) {
	const (
		submitters   = 6
		perSubmitter = 300
	)
	n := 64
	s, err := New(Config{N: n, Engine: concentrator.MuxMerger, Workers: 4, QueueDepth: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var stop atomic.Bool
	var violations atomic.Int64
	var snapErr atomic.Value
	var snappers sync.WaitGroup
	for g := 0; g < 2; g++ {
		snappers.Add(1)
		go func() {
			defer snappers.Done()
			for !stop.Load() {
				st := s.Stats()
				if st.InFlight < 0 || st.Submitted < st.Completed+st.InFlight {
					violations.Add(1)
					snapErr.Store(st)
				}
			}
		}()
	}

	ctx := context.Background()
	var subs sync.WaitGroup
	for g := 0; g < submitters; g++ {
		g := g
		subs.Add(1)
		go func() {
			defer subs.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perSubmitter; i++ {
				var req Request
				if i%2 == 0 {
					req = Request{Kind: Permute, Dest: rng.Perm(n)}
				} else {
					keys := make([]uint64, n)
					for j := range keys {
						keys[j] = rng.Uint64()
					}
					req = Request{Kind: SortWords, Keys: keys}
				}
				fut, err := s.Submit(ctx, req)
				if err != nil {
					t.Error(err)
					return
				}
				if i%8 == 0 { // mix waited and fire-and-forget submissions
					if _, err := fut.Wait(ctx); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	subs.Wait()
	s.Close()
	stop.Store(true)
	snappers.Wait()

	if v := violations.Load(); v != 0 {
		t.Fatalf("%d torn snapshots violated Submitted >= Completed + InFlight; last: %+v",
			v, snapErr.Load())
	}
	st := s.Stats()
	want := int64(submitters * perSubmitter)
	if st.Submitted != want || st.Completed != want || st.InFlight != 0 {
		t.Fatalf("final stats: submitted=%d completed=%d inflight=%d, want %d/%d/0",
			st.Submitted, st.Completed, st.InFlight, want, want)
	}
}

// pinBreakEven fixes the break-even width k* of kind's current plan
// instance at k: the scalar cost cell at 1 ns and the packed cell at
// k ns. Every real route or replay takes far longer than k ns, so the
// minima never move and the burst decisions stay deterministic.
func pinBreakEven(s *Service, kind Kind, k int) {
	inst := s.loadInst(kind)
	inst.scalarNs.Store(1)
	inst.packedWordNs.Store(int64(k))
}

// TestRunsTakenInAdmissionOrder pins the run rule: a worker takes the
// queue's leading same-kind run when it reaches k* (pinned here at
// MinPackedLanes), otherwise the head alone, so no request is claimed
// ahead of one admitted before it. Behind one held worker queue 200
// Concentrates, one Permute with a deadline, 30 more Permutes and 10
// Concentrates: the worker must replay the first 192 Concentrates as
// three one-word runs of 64, route the other 8 (fewer than k*) one by
// one, then replay all 31 Permutes as one run, and route the last 10
// Concentrates one by one.
func TestRunsTakenInAdmissionOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, concs, perms, trailing = 64, 200, 30, 10
	s := newTestService(t, Config{N: n, Engine: concentrator.MuxMerger, Workers: 1, QueueDepth: 512})
	pinBreakEven(s, Permute, concentrator.MinPackedLanes)
	pinBreakEven(s, Concentrate, concentrator.MinPackedLanes)
	type burstInfo struct {
		kind Kind
		size int
	}
	var mu sync.Mutex
	var bursts []burstInfo
	s.testOnBurst = func(kind Kind, size int) {
		mu.Lock()
		bursts = append(bursts, burstInfo{kind, size})
		mu.Unlock()
	}
	h := newWorkerHold(s)
	holdFut := h.hold(t)
	ctx := context.Background()
	var futs []*Future
	submit := func(req Request) {
		fut, err := s.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, fut)
	}
	conc := func() {
		marked := make([]bool, n)
		for j := range marked {
			marked[j] = rng.Intn(2) == 0
		}
		submit(Request{Kind: Concentrate, Marked: marked})
	}
	for i := 0; i < concs; i++ {
		conc()
	}
	submit(Request{Kind: Permute, Dest: rng.Perm(n), Deadline: time.Now().Add(time.Hour)})
	for i := 0; i < perms; i++ {
		submit(Request{Kind: Permute, Dest: rng.Perm(n)})
	}
	for i := 0; i < trailing; i++ {
		conc()
	}
	h.unhold()
	for i, fut := range append(futs, holdFut) {
		if _, err := fut.Wait(ctx); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	const word = concentrator.PackedLanes
	want := []burstInfo{{Concentrate, word}, {Concentrate, word}, {Concentrate, word}, {Permute, perms + 1}}
	if !slices.Equal(bursts, want) {
		t.Fatalf("bursts %+v, want %+v", bursts, want)
	}
	st := s.Stats()
	if p := st.Paths[Concentrate]; p.Packed != 3*word || p.PerRequest != concs-3*word+trailing {
		t.Fatalf("concentrate paths %+v, want %d packed, %d per request", p, 3*word, concs-3*word+trailing)
	}
	if p := st.Paths[Permute]; p.Packed != perms+1 || p.PerRequest != 0 {
		t.Fatalf("permute paths %+v, want %d packed, 0 per request", p, perms+1)
	}
}

// TestNoNarrowBurst pins the narrow-group rule: with fewer than k*
// (pinned here at MinPackedLanes) requests on hand a worker routes the
// one it picked and leaves the rest of the queue to the other workers. Before the fix, a
// worker drained all 16 held Permutes into one burst too narrow to pack
// and routed them one by one while the second worker idled.
func TestNoNarrowBurst(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n := 64
	const held = 16
	s, err := New(Config{N: n, Engine: concentrator.Fish, Workers: 2, QueueDepth: held})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pinBreakEven(s, Permute, concentrator.MinPackedLanes)

	release := make(chan struct{})
	var holding atomic.Int32
	s.testBeforeExec = func() {
		if holding.Add(1) <= 2 {
			<-release
		}
	}
	var mu sync.Mutex
	var sizes []int
	s.testOnBurst = func(kind Kind, size int) {
		mu.Lock()
		sizes = append(sizes, size)
		mu.Unlock()
	}

	ctx := context.Background()
	futs := make([]*Future, 0, held+2)
	for len(futs) < 2 { // one hold task per worker
		fut, err := s.Submit(ctx, Request{Kind: SortWords, Keys: make([]uint64, n)})
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, fut)
	}
	for holding.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	dests := make([][]int, held)
	for i := range dests {
		dests[i] = rng.Perm(n)
		fut, err := s.Submit(ctx, Request{Kind: Permute, Dest: dests[i]})
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, fut)
	}
	close(release)
	for i, fut := range futs {
		res, err := fut.Wait(ctx)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if i < 2 {
			continue
		}
		for src, d := range dests[i-2] {
			if res.Perm[d] != src {
				t.Fatalf("permute %d: input %d not at dest %d", i-2, src, d)
			}
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for _, size := range sizes {
		if size < concentrator.MinPackedLanes {
			t.Fatalf("burst of %d formed (all bursts %v), want none narrower than MinPackedLanes = %d",
				size, sizes, concentrator.MinPackedLanes)
		}
	}
}

// TestSubmitCloseMidBackpressure closes the service while submitters are
// blocked on a full queue: every Submit must either return the typed
// ErrClosed or a Future that resolves — never panic on a closed channel,
// never hang on the drained queue. Run with -race.
func TestSubmitCloseMidBackpressure(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 64
	for iter := 0; iter < 20; iter++ {
		s, err := New(Config{N: n, Engine: concentrator.MuxMerger, Workers: 1, QueueDepth: 1})
		if err != nil {
			t.Fatal(err)
		}
		release := make(chan struct{})
		s.testBeforeExec = func() { <-release }

		ctx := context.Background()
		// Occupy the worker and fill the queue so later Submits block.
		hold, err := s.Submit(ctx, Request{Kind: Permute, Dest: rng.Perm(n)})
		if err != nil {
			t.Fatal(err)
		}
		fill, err := s.Submit(ctx, Request{Kind: Permute, Dest: rng.Perm(n)})
		if err != nil {
			t.Fatal(err)
		}

		const blocked = 16
		type outcome struct {
			fut *Future
			err error
		}
		results := make(chan outcome, blocked)
		var wg sync.WaitGroup
		for g := 0; g < blocked; g++ {
			dest := rng.Perm(n)
			wg.Add(1)
			go func() {
				defer wg.Done()
				fut, err := s.Submit(ctx, Request{Kind: Permute, Dest: dest})
				results <- outcome{fut, err}
			}()
		}
		var closers sync.WaitGroup
		closers.Add(2)
		go func() { defer closers.Done(); s.Close() }()
		go func() { defer closers.Done(); close(release) }()
		wg.Wait()
		closers.Wait()
		close(results)

		admitted := 0
		for out := range results {
			switch {
			case out.err == nil:
				admitted++
				if _, err := out.fut.Wait(ctx); err != nil {
					t.Fatalf("iter %d: admitted future resolved with %v", iter, err)
				}
			case !errors.Is(out.err, ErrClosed):
				t.Fatalf("iter %d: Submit during Close returned %v, want ErrClosed", iter, out.err)
			}
		}
		for _, fut := range []*Future{hold, fill} {
			if _, err := fut.Wait(ctx); err != nil {
				t.Fatalf("iter %d: pre-close future: %v", iter, err)
			}
		}
		if _, err := s.Submit(ctx, Request{Kind: Permute, Dest: rng.Perm(n)}); !errors.Is(err, ErrClosed) {
			t.Fatalf("iter %d: Submit after Close = %v, want ErrClosed", iter, err)
		}
		st := s.Stats()
		if st.Submitted != st.Completed || st.InFlight != 0 {
			t.Fatalf("iter %d: submitted=%d completed=%d inflight=%d after drain",
				iter, st.Submitted, st.Completed, st.InFlight)
		}
		if st.Completed != int64(2+admitted) {
			t.Fatalf("iter %d: completed=%d, want %d", iter, st.Completed, 2+admitted)
		}
	}
}

// TestFutureWaitResolvedBeatsCancel pins Wait's race rule: a context
// canceled after the Future resolved still returns the result, and
// concurrent Wait callers all observe the same (Result, error) pair.
// Run with -race.
func TestFutureWaitResolvedBeatsCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	n := 64
	s, err := New(Config{N: n, Engine: concentrator.MuxMerger, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx := context.Background()
	dest := rng.Perm(n)
	fut, err := s.Submit(ctx, Request{Kind: Permute, Dest: dest})
	if err != nil {
		t.Fatal(err)
	}
	<-fut.Done() // resolved before any cancellation below

	cctx, cancel := context.WithCancel(context.Background())
	cancel() // already done: both Wait branches are ready
	wantRes, wantErr := fut.Result()
	if wantErr != nil {
		t.Fatal(wantErr)
	}
	const waiters = 32
	var wg sync.WaitGroup
	for g := 0; g < waiters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := fut.Wait(cctx)
			if err != nil {
				t.Errorf("Wait on resolved future with canceled ctx: %v", err)
				return
			}
			if len(res.Perm) != n {
				t.Errorf("Wait returned %d-wide perm, want %d", len(res.Perm), n)
				return
			}
			for i := range res.Perm {
				if res.Perm[i] != wantRes.Perm[i] {
					t.Errorf("Wait observed a different result at %d", i)
					return
				}
			}
		}()
	}
	wg.Wait()

	// An unresolved future with a canceled ctx still reports the ctx
	// error (cancellation only loses the race once resolution happened).
	release := make(chan struct{})
	s.testBeforeExec = func() { <-release }
	defer close(release)
	slow, err := s.Submit(ctx, Request{Kind: Permute, Dest: rng.Perm(n)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := slow.Wait(cctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait on pending future with canceled ctx = %v, want context.Canceled", err)
	}
}
