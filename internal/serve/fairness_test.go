package serve

// Regression tests for the serve bugfix sweep: the torn-snapshot stats
// invariant, burst-drain fairness across request kinds, the
// Submit-during-Close backpressure race, and Future.Wait's
// resolution-beats-cancellation guarantee.

import (
	"context"
	"errors"
	"math/rand"
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

// burstTailSetup queues, behind one held worker, concs Concentrate
// requests and then one Permute — the drain's tail — with the given
// deadline, followed by perms more Permutes. It returns the released
// service's futures.
func burstTailSetup(t *testing.T, s *Service, rng *rand.Rand, concs, perms int, deadline time.Time) (
	concFuts []*Future, tailFut *Future, permFuts []*Future, release func()) {
	t.Helper()
	n := s.N()
	h := newWorkerHold(s)
	h.hold(t)
	ctx := context.Background()
	submit := func(req Request) *Future {
		fut, err := s.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		return fut
	}
	for i := 0; i < concs; i++ {
		marked := make([]bool, n)
		for j := range marked {
			marked[j] = rng.Intn(2) == 0
		}
		concFuts = append(concFuts, submit(Request{Kind: Concentrate, Marked: marked}))
	}
	tailFut = submit(Request{Kind: Permute, Dest: rng.Perm(n), Deadline: deadline})
	for i := 0; i < perms; i++ {
		permFuts = append(permFuts, submit(Request{Kind: Permute, Dest: rng.Perm(n)}))
	}
	return concFuts, tailFut, permFuts, h.unhold
}

// TestBurstTailNotStarved pins the drain-fairness rule for a tail with
// a deadline: the other-kind task that ends a greedy same-kind drain
// must execute BEFORE the burst's packed replay, not after it. A single
// held worker makes the schedule deterministic: 200 Concentrate
// requests queue up behind a scalar hold task, a lone Permute with a
// deadline lands behind them, and on release the worker must resolve
// the Permute (the drain's tail) while every burst Concentrate is still
// unresolved. TestBurstCarriedTailPacks covers a tail without one.
func TestBurstTailNotStarved(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const concs = 200 // below burstLanes so the drain reaches the Permute
	s, err := New(Config{N: 64, Engine: concentrator.MuxMerger, Workers: 1, QueueDepth: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	burstGate := make(chan struct{})
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(burstGate) }) }
	defer openGate()
	type burstInfo struct {
		kind Kind
		size int
	}
	burstCh := make(chan burstInfo, 4)
	s.testOnBurst = func(kind Kind, size int) {
		burstCh <- burstInfo{kind, size}
		<-burstGate // park the worker between the tail and the replay
	}
	concFuts, tailFut, _, release := burstTailSetup(t, s, rng, concs, 0, time.Now().Add(time.Hour))

	ctx := context.Background()
	release()
	if _, err := tailFut.Wait(ctx); err != nil {
		t.Fatalf("tail permute: %v", err)
	}
	// Receiving from burstCh synchronizes with the worker, which is now
	// parked in testOnBurst: the tail has run, the burst replay has not.
	// Every burst Concentrate must still be pending.
	burst := <-burstCh
	resolved := 0
	for _, fut := range concFuts {
		select {
		case <-fut.Done():
			resolved++
		default:
		}
	}
	if resolved != 0 {
		t.Errorf("%d/%d burst concentrates resolved before the drain's tail", resolved, concs)
	}
	if burst.kind != Concentrate || burst.size != concs {
		t.Errorf("burst = (%v, %d), want (%v, %d)", burst.kind, burst.size, Concentrate, concs)
	}
	openGate()
	for i, fut := range concFuts {
		if _, err := fut.Wait(ctx); err != nil {
			t.Fatalf("concentrate %d: %v", i, err)
		}
	}
	if c := s.Stats().Paths[Permute].Carried; c != 0 {
		t.Errorf("deadline tail carried (%d carried), want it run before the replay", c)
	}
}

// TestBurstCarriedTailPacks pins the rule for a tail without a deadline:
// it is carried to the head of the worker's next drain and resolves
// inside its own kind's burst. Behind one held worker, 200 Concentrates
// are followed by a deadline-free Permute and 30 more Permutes: the
// worker must run the Concentrate burst with the tail still pending,
// then one Permute burst of all 31.
func TestBurstCarriedTailPacks(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const concs, perms = 200, 30
	s, err := New(Config{N: 64, Engine: concentrator.MuxMerger, Workers: 1, QueueDepth: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pinBreakEven(s, Permute, concentrator.MinPackedLanes)

	type burstInfo struct {
		kind        Kind
		size        int
		tailPending bool
	}
	var mu sync.Mutex
	var bursts []burstInfo
	var tailFut *Future
	s.testOnBurst = func(kind Kind, size int) {
		pending := true
		select {
		case <-tailFut.Done():
			pending = false
		default:
		}
		mu.Lock()
		bursts = append(bursts, burstInfo{kind, size, pending})
		mu.Unlock()
	}
	concFuts, tailFut, permFuts, release := burstTailSetup(t, s, rng, concs, perms, time.Time{})

	ctx := context.Background()
	release()
	for i, fut := range append(append(concFuts, tailFut), permFuts...) {
		if _, err := fut.Wait(ctx); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	want := []burstInfo{{Concentrate, concs, true}, {Permute, perms + 1, true}}
	if len(bursts) != len(want) || bursts[0] != want[0] || bursts[1] != want[1] {
		t.Fatalf("bursts %+v, want %+v", bursts, want)
	}
	st := s.Stats()
	if p := st.Paths[Permute]; p.Carried != 1 || p.Packed != perms+1 || p.PerRequest != 0 {
		t.Fatalf("permute paths %+v, want 1 carried, %d packed, 0 per request", p, perms+1)
	}
}

// TestBurstConsecutiveKindCap pins the sustained-stream fairness bound:
// after maxConsecBursts consecutive full-width same-kind bursts, further
// same-kind drains are capped at one lane word until the streak breaks.
// A pre-filled queue, a single worker and a break-even width pinned at
// MinPackedLanes make the burst sequence exact. The trailing 20 requests
// are fewer than k*, so they route per request and form no burst.
func TestBurstConsecutiveKindCap(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 64
	total := maxConsecBursts*burstLanes + 4*concentrator.PackedLanes + 20
	s, err := New(Config{N: n, Engine: concentrator.MuxMerger, Workers: 1, QueueDepth: total + 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pinBreakEven(s, Concentrate, concentrator.MinPackedLanes)

	release := make(chan struct{})
	var held atomic.Bool
	s.testBeforeExec = func() {
		if held.CompareAndSwap(false, true) {
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
	keys := make([]uint64, n)
	holdFut, err := s.Submit(ctx, Request{Kind: SortWords, Keys: keys})
	if err != nil {
		t.Fatal(err)
	}
	for !held.Load() {
		time.Sleep(time.Millisecond)
	}
	futs := make([]*Future, total)
	for i := range futs {
		marked := make([]bool, n)
		for j := range marked {
			marked[j] = rng.Intn(2) == 0
		}
		if futs[i], err = s.Submit(ctx, Request{Kind: Concentrate, Marked: marked}); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	for i, fut := range futs {
		if _, err := fut.Wait(ctx); err != nil {
			t.Fatalf("concentrate %d: %v", i, err)
		}
	}
	if _, err := holdFut.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	want := []int{burstLanes, burstLanes, burstLanes, burstLanes,
		concentrator.PackedLanes, concentrator.PackedLanes,
		concentrator.PackedLanes, concentrator.PackedLanes}
	if len(sizes) != len(want) {
		t.Fatalf("burst sizes %v, want %v", sizes, want)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("burst %d: size %d, want %d (full sequence %v)", i, sizes[i], want[i], sizes)
		}
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
