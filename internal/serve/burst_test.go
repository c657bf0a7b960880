package serve

// Tests of the run rule's measured packing threshold: the break-even
// width k*, runs of every interesting width routed bit-identically to
// the per-request path, the per-path counters, recovery re-learning
// the cost cells, and the holds that fill lane words — behind a packed
// replay in flight, and timed by the cost cells with none in flight.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"absort/internal/cmpnet"
	"absort/internal/concentrator"
	"absort/internal/core"
	"absort/internal/permnet"
	"absort/internal/planner"
)

// TestBreakEvenBoundaries pins k* = ⌈packed-word ÷ scalar⌉ clamped to
// [2, 64], with MinPackedLanes until both cost cells hold a sample, and
// the minimum-keeping cost cells behind it.
func TestBreakEvenBoundaries(t *testing.T) {
	cases := []struct {
		name           string
		scalar, packed int64
		want           int
	}{
		{"unobserved", 0, 0, concentrator.MinPackedLanes},
		{"scalar only", 100, 0, concentrator.MinPackedLanes},
		{"packed only", 0, 100, concentrator.MinPackedLanes},
		{"equal costs", 100, 100, 2},
		{"cheaper packed", 100, 30, 2},
		{"exact ratio", 100, 1000, 10},
		{"rounds up", 100, 1001, 11},
		{"at the top", 100, 6400, 64},
		{"clamped", 100, 1 << 40, 64},
	}
	for _, tc := range cases {
		var pi planInstance
		pi.scalarNs.Store(tc.scalar)
		pi.packedWordNs.Store(tc.packed)
		if got := pi.breakEven(); got != tc.want {
			t.Errorf("%s: breakEven(scalar %d, packed %d) = %d, want %d",
				tc.name, tc.scalar, tc.packed, got, tc.want)
		}
	}

	var pi planInstance
	pi.observeScalar(500 * time.Nanosecond)
	pi.observeScalar(900 * time.Nanosecond) // not a new minimum
	pi.observeScalar(400 * time.Nanosecond)
	pi.observePacked(2000 * time.Nanosecond)
	pi.observePacked(1500 * time.Nanosecond)
	pi.observePacked(1250 * time.Nanosecond)
	pi.observePacked(9000 * time.Nanosecond) // not a new minimum
	if s, p := pi.scalarNs.Load(), pi.packedWordNs.Load(); s != 400 || p != 1250 {
		t.Fatalf("cost cells = (%d, %d) ns, want the minima (400, 1250)", s, p)
	}
	if got := pi.breakEven(); got != 4 {
		t.Fatalf("breakEven = %d, want ⌈1250/400⌉ = 4", got)
	}
	pi.observeScalar(0) // a clock that did not tick still counts as 1 ns
	if got := pi.breakEven(); got != maxBreakEven {
		t.Fatalf("breakEven after a 0 ns sample = %d, want %d", got, maxBreakEven)
	}
}

// workerHold parks a single-worker service's worker on demand, so a
// test can queue a burst behind it and release the whole burst at once.
type workerHold struct {
	s       *Service
	armed   atomic.Bool
	held    chan struct{}
	release chan struct{}
}

func newWorkerHold(s *Service) *workerHold {
	h := &workerHold{s: s, held: make(chan struct{}), release: make(chan struct{})}
	s.testBeforeExec = func() {
		if h.armed.CompareAndSwap(true, false) {
			h.held <- struct{}{}
			<-h.release
		}
	}
	return h
}

// hold occupies the worker with a SortWords task (which never starts a
// burst) and returns once the worker is parked on it.
func (h *workerHold) hold(t *testing.T) *Future {
	t.Helper()
	h.armed.Store(true)
	fut, err := h.s.Submit(context.Background(), Request{Kind: SortWords, Keys: make([]uint64, h.s.N())})
	if err != nil {
		t.Fatal(err)
	}
	<-h.held
	return fut
}

func (h *workerHold) unhold() { h.release <- struct{}{} }

// sameOutcome reports how a service response differs from the
// reference plan set's, or "" when they are bit-identical.
func sameOutcome(got, want Result, gotErr, wantErr error) string {
	switch {
	case (gotErr == nil) != (wantErr == nil):
		return fmt.Sprintf("err %v, want %v", gotErr, wantErr)
	case gotErr != nil:
		if gotErr.Error() != wantErr.Error() {
			return fmt.Sprintf("err %q, want %q", gotErr, wantErr)
		}
		return ""
	case got.Count != want.Count:
		return fmt.Sprintf("count %d, want %d", got.Count, want.Count)
	case len(got.Perm) != len(want.Perm):
		return fmt.Sprintf("perm length %d, want %d", len(got.Perm), len(want.Perm))
	}
	for j := range want.Perm {
		if got.Perm[j] != want.Perm[j] {
			return fmt.Sprintf("perm[%d] = %d, want %d", j, got.Perm[j], want.Perm[j])
		}
	}
	return ""
}

// TestServeBurstWidthsDifferential drives single-kind bursts of every
// boundary width through a one-worker service whose break-even width is
// pinned at 2, so every burst rides the packed replay, and checks each
// response bit-for-bit against PlanSet.Exec on a reference plan set:
// the widths straddle the old MinPackedLanes = 24 rule and one lane word
// (64). A burst of 65 rides one packed replay of 64, and its 65th request
// is taken alone on the next claim. Two further bursts take the
// fallback paths: a Permute burst carrying a malformed permutation
// (RoutePacked fails, the group re-routes per request) and a
// Concentrate burst with over-capacity patterns on an (n, n/2)
// concentrator (those resolve alone with the capacity error).
func TestServeBurstWidthsDifferential(t *testing.T) {
	widths := []int{2, 3, 7, 23, 24, 63, 64, 65}
	const word = concentrator.PackedLanes
	for _, engine := range []Engine{concentrator.Fish, cmpnet.EnginePeriodic, concentrator.MuxMerger} {
		t.Run(engine.String(), func(t *testing.T) {
			const n = 64
			cfg := Config{N: n, Engine: engine, M: n / 2, Workers: 1, QueueDepth: 128, CheckFraction: 1}
			ref, err := NewPlanSet(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s := newTestService(t, cfg)
			pinBreakEven(s, Permute, 2)
			pinBreakEven(s, Concentrate, 2)
			h := newWorkerHold(s)
			var mu sync.Mutex
			var bursts []int
			s.testOnBurst = func(kind Kind, size int) {
				mu.Lock()
				bursts = append(bursts, size)
				mu.Unlock()
			}
			rng := rand.New(rand.NewSource(int64(engine) + 5))
			ctx := context.Background()

			// round queues reqs behind a held worker, releases them, and
			// checks that the first lane word of them ran as one burst and
			// every response matches the reference.
			round := func(name string, reqs []Request) {
				t.Helper()
				mu.Lock()
				bursts = bursts[:0]
				mu.Unlock()
				holdFut := h.hold(t)
				futs := make([]*Future, len(reqs))
				for i, req := range reqs {
					if futs[i], err = s.Submit(ctx, req); err != nil {
						t.Fatal(err)
					}
				}
				h.unhold()
				if _, err := holdFut.Wait(ctx); err != nil {
					t.Fatal(err)
				}
				for i, fut := range futs {
					got, gotErr := fut.Wait(ctx)
					want, wantErr := ref.Exec(ctx, reqs[i], time.Now())
					if diff := sameOutcome(got, want, gotErr, wantErr); diff != "" {
						t.Fatalf("%s: request %d: %s", name, i, diff)
					}
				}
				mu.Lock()
				defer mu.Unlock()
				if want := min(len(reqs), word); len(bursts) != 1 || bursts[0] != want {
					t.Fatalf("%s: bursts %v, want one of %d", name, bursts, want)
				}
			}
			perm := func() Request { return Request{Kind: Permute, Dest: rng.Perm(n)} }
			conc := func(marks int) Request {
				marked := make([]bool, n)
				for _, j := range rng.Perm(n)[:marks] {
					marked[j] = true
				}
				return Request{Kind: Concentrate, Marked: marked}
			}

			for _, k := range widths {
				before := s.Stats().Paths
				var perms, concs []Request
				for i := 0; i < k; i++ {
					perms = append(perms, perm())
					concs = append(concs, conc(rng.Intn(n/2+1)))
				}
				round(fmt.Sprintf("permute ×%d", k), perms)
				round(fmt.Sprintf("concentrate ×%d", k), concs)
				after := s.Stats().Paths
				packed := min(k, word)
				for _, kind := range []Kind{Permute, Concentrate} {
					if d := after[kind].Packed - before[kind].Packed; d != int64(packed) {
						t.Fatalf("%v ×%d: %d requests packed, want %d", kind, k, d, packed)
					}
					if d := after[kind].PerRequest - before[kind].PerRequest; d != int64(k-packed) {
						t.Fatalf("%v ×%d: %d requests routed per request, want %d", kind, k, d, k-packed)
					}
					if d := after[kind].Replays - before[kind].Replays; d != 1 {
						t.Fatalf("%v ×%d: %d replays counted, want 1", kind, k, d)
					}
				}
			}

			// Fallback: a non-permutation makes RoutePacked fail, and the
			// whole group re-routes per request.
			bad := make([]Request, 7)
			for i := range bad {
				bad[i] = perm()
			}
			bad[3].Dest[0] = bad[3].Dest[1] // duplicate destination
			before := s.Stats().Paths[Permute]
			round("malformed permute burst", bad)
			after := s.Stats().Paths[Permute]
			if after.Packed != before.Packed || after.Replays != before.Replays ||
				after.PerRequest-before.PerRequest != int64(len(bad)) {
				t.Fatalf("malformed burst paths %+v → %+v, want all %d per request and no replay counted",
					before, after, len(bad))
			}

			// Over capacity: patterns with more than m = n/2 marks resolve
			// alone; the rest of the burst still packs.
			var mixed []Request
			over := 0
			for i := 0; i < 30; i++ {
				if i%4 == 1 {
					mixed = append(mixed, conc(n/2+1+rng.Intn(n/2)))
					over++
				} else {
					mixed = append(mixed, conc(rng.Intn(n/2+1)))
				}
			}
			before = s.Stats().Paths[Concentrate]
			round("over-capacity concentrate burst", mixed)
			after = s.Stats().Paths[Concentrate]
			if after.Packed-before.Packed != int64(len(mixed)-over) ||
				after.PerRequest-before.PerRequest != int64(over) {
				t.Fatalf("over-capacity burst paths %+v → %+v, want %d packed, %d per request",
					before, after, len(mixed)-over, over)
			}
		})
	}
}

// TestPathStatsAddUp streams a mixed workload — every kind, expired
// deadlines, bursts and lone requests — through a multi-worker service
// and a bare plan set, and checks the per-path counters: summed over
// kinds, Packed + PerRequest is Completed, every replay carried between
// one and PackedLanes packed requests, and BreakEven is reported only
// for the packable kinds.
func TestPathStatsAddUp(t *testing.T) {
	const n = 64
	s := newTestService(t, Config{N: n, Engine: concentrator.Fish, Workers: 2, QueueDepth: 256, WordBits: 8})
	ps, err := NewPlanSet(Config{N: n, Engine: concentrator.Fish, WordBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	ctx := context.Background()
	var futs []*Future
	for i := 0; i < 600; i++ {
		var req Request
		switch k := i / 50 % 3; {
		case i%97 == 0:
			req = Request{Kind: Permute, Dest: rng.Perm(n), Deadline: time.Now().Add(-time.Second)}
		case k == 0:
			req = Request{Kind: Permute, Dest: rng.Perm(n)}
		case k == 1:
			marked := make([]bool, n)
			for j := range marked {
				marked[j] = rng.Intn(2) == 0
			}
			req = Request{Kind: Concentrate, Marked: marked}
		default:
			req = Request{Kind: SortWords, Keys: make([]uint64, n)}
		}
		fut, err := s.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, fut)
		if i%3 == 0 {
			if _, err := ps.Exec(ctx, req, time.Now()); err != nil && req.Deadline.IsZero() {
				t.Fatal(err)
			}
		}
	}
	for _, fut := range futs {
		<-fut.Done()
	}
	for name, st := range map[string]Stats{"service": s.Stats(), "plan set": ps.Stats()} {
		var sum int64
		for _, p := range st.Paths {
			sum += p.Packed + p.PerRequest
		}
		if sum != st.Completed {
			t.Errorf("%s: Packed + PerRequest over kinds = %d, Completed = %d (paths %+v)",
				name, sum, st.Completed, st.Paths)
		}
		for kind, p := range st.Paths {
			if p.Replays > p.Packed || p.Packed > p.Replays*concentrator.PackedLanes {
				t.Errorf("%s: %v paths %+v, want Replays ≤ Packed ≤ Replays × %d",
					name, Kind(kind), p, concentrator.PackedLanes)
			}
		}
		if st.Paths[SortWords].Packed != 0 || st.Paths[SortWords].BreakEven != 0 {
			t.Errorf("%s: SortWords paths %+v, want never packed", name, st.Paths[SortWords])
		}
		for _, kind := range []Kind{Permute, Concentrate} {
			if k := st.Paths[kind].BreakEven; k < minBreakEven || k > maxBreakEven {
				t.Errorf("%s: %v BreakEven = %d, want within [%d, %d]", name, kind, k, minBreakEven, maxBreakEven)
			}
		}
	}
	if p := ps.Stats().Paths; p[Permute].Packed+p[Concentrate].Packed != 0 {
		t.Errorf("plan set paths %+v: Exec never packs", p)
	}
}

// TestRecoveryRelearnsCosts checks the replacement plan instance that
// recovery swaps in starts with unobserved cost cells — k* falls back
// to MinPackedLanes and is re-learned on the new copy — while a faulted
// copy reports no break-even at all (it never packs).
func TestRecoveryRelearnsCosts(t *testing.T) {
	const n = 16
	s := newTestService(t, Config{N: n, Engine: concentrator.MuxMerger, Workers: 1, QueueDepth: 4, CheckFraction: 1})
	pinBreakEven(s, Permute, 5)
	if k := s.Stats().Paths[Permute].BreakEven; k != 5 {
		t.Fatalf("pinned BreakEven = %d, want 5", k)
	}
	old := s.loadInst(Permute)
	if err := s.InjectFault(WireFault{Kind: Permute, Pos: 1, Bit: core.Lg(n) - 1, Stuck: 1}); err != nil {
		t.Fatal(err)
	}
	if k := s.Stats().Paths[Permute].BreakEven; k != 0 {
		t.Fatalf("faulted BreakEven = %d, want 0", k)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; s.loadInst(Permute) == old; trial++ {
		if trial == 32 {
			t.Fatal("no recovery after 32 checked requests through a wedged wire")
		}
		if _, err := submitWait(t, s, Request{Kind: Permute, Dest: rng.Perm(n)}); err != nil {
			t.Fatal(err)
		}
	}
	inst := s.loadInst(Permute)
	if sc, pk := inst.scalarNs.Load(), inst.packedWordNs.Load(); sc != 0 || pk != 0 {
		t.Fatalf("replacement cost cells (%d, %d) ns, want unobserved", sc, pk)
	}
	if k := s.Stats().Paths[Permute].BreakEven; k != concentrator.MinPackedLanes {
		t.Fatalf("replacement BreakEven = %d, want MinPackedLanes = %d", k, concentrator.MinPackedLanes)
	}
	if _, err := submitWait(t, s, Request{Kind: Permute, Dest: rng.Perm(n)}); err != nil {
		t.Fatal(err)
	}
	if inst.scalarNs.Load() == 0 {
		t.Fatal("a clean per-request route on the replacement fed no scalar cost")
	}
}

// TestCarriedTailHonoursCancel checks that a request queued behind a
// packed run still honours its context when its turn comes: a Permute
// whose context is cancelled while the Concentrate run ahead of it
// replays resolves with the cancellation, unrouted, and Close still
// drains everything.
func TestCarriedTailHonoursCancel(t *testing.T) {
	const n = 64
	s, err := New(Config{N: n, Engine: concentrator.MuxMerger, Workers: 1, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	h := newWorkerHold(s)
	tailCtx, cancel := context.WithCancel(context.Background())
	s.testOnBurst = func(kind Kind, size int) {
		if kind == Concentrate {
			cancel() // the Permute is still queued, not yet routed
		}
	}
	rng := rand.New(rand.NewSource(31))
	ctx := context.Background()
	holdFut := h.hold(t)
	var concs []*Future
	for i := 0; i < 30; i++ {
		marked := make([]bool, n)
		for j := range marked {
			marked[j] = rng.Intn(2) == 0
		}
		fut, err := s.Submit(ctx, Request{Kind: Concentrate, Marked: marked})
		if err != nil {
			t.Fatal(err)
		}
		concs = append(concs, fut)
	}
	tailFut, err := s.Submit(tailCtx, Request{Kind: Permute, Dest: rng.Perm(n)})
	if err != nil {
		t.Fatal(err)
	}
	h.unhold()
	s.Close()
	for i, fut := range append([]*Future{holdFut}, concs...) {
		if _, err := fut.Result(); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if _, err := tailFut.Result(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled queued permute resolved with %v, want context.Canceled", err)
	}
	if p := s.Stats().Paths; p[Concentrate].Packed != 30 || p[Permute].Packed != 0 || p[Permute].PerRequest != 1 {
		t.Fatalf("paths %+v, want the 30 concentrates packed and the permute resolved per request", p)
	}
}

// replayHold is a two-worker service of width n with k* pinned at 2
// for both packable kinds and one worker parked inside a packed
// Concentrate replay, so a test can queue requests behind a replay in
// flight.
type replayHold struct {
	s      *Service
	futs   []*Future // the parking requests: two SortWords, two Concentrates
	unhold func()    // releases the parked replay; idempotent

	// permGate, when set before the Permutes are submitted, parks every
	// Permute run's replay until it is closed.
	permGate chan struct{}

	mu     sync.Mutex
	bursts []int // widths of the Permute runs taken
}

func newReplayHold(t *testing.T, n int) *replayHold {
	t.Helper()
	s := newTestService(t, Config{N: n, Engine: concentrator.MuxMerger, Workers: 2, QueueDepth: 128})
	pinBreakEven(s, Permute, 2)
	pinBreakEven(s, Concentrate, 2)
	release := make(chan struct{})
	h := &replayHold{s: s, unhold: sync.OnceFunc(func() { close(release) })}
	t.Cleanup(h.unhold) // runs before the service's Close
	gate := make(chan struct{})
	var parked atomic.Int32
	s.testBeforeExec = func() {
		if parked.Add(1) <= 2 {
			<-gate
		}
	}
	inReplay := make(chan struct{})
	s.testOnBurst = func(kind Kind, size int) {
		if kind == Concentrate {
			close(inReplay)
			<-release
			return
		}
		h.mu.Lock()
		h.bursts = append(h.bursts, size)
		h.mu.Unlock()
		if h.permGate != nil {
			<-h.permGate
		}
	}
	submit := func(req Request) {
		fut, err := s.Submit(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		h.futs = append(h.futs, fut)
	}
	for range 2 { // park each worker on a SortWords task
		submit(Request{Kind: SortWords, Keys: make([]uint64, n)})
	}
	for parked.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	for range 2 { // the run one worker takes once the gate opens
		submit(Request{Kind: Concentrate, Marked: make([]bool, n)})
	}
	close(gate)
	<-inReplay
	return h
}

// submitPermutes queues k Permutes and returns their Futures.
func (h *replayHold) submitPermutes(t *testing.T, k int) []*Future {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(k)))
	futs := make([]*Future, k)
	for i := range futs {
		var err error
		if futs[i], err = h.s.Submit(context.Background(), Request{Kind: Permute, Dest: rng.Perm(h.s.N())}); err != nil {
			t.Fatal(err)
		}
	}
	return futs
}

// permuteRuns returns the widths of the Permute runs taken so far.
func (h *replayHold) permuteRuns() []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]int(nil), h.bursts...)
}

// waitAll waits up to 10 s for every Future and fails on any error.
func waitAll(t *testing.T, futs []*Future) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i, fut := range futs {
		if _, err := fut.Wait(ctx); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
}

// TestPartialRunHeldBehindReplay pins the hold: with a packed replay in
// flight, the free worker claims none of 10 queued Permutes — no run,
// no per-request route — and once the replay returns the 10 ride one
// 10-wide run.
func TestPartialRunHeldBehindReplay(t *testing.T) {
	h := newReplayHold(t, 64)
	futs := h.submitPermutes(t, 10)
	time.Sleep(50 * time.Millisecond) // an unheld worker claims within microseconds
	if q, p, runs := h.s.QueueLen(), h.s.Stats().Paths[Permute], h.permuteRuns(); q != 10 ||
		p.Packed+p.PerRequest != 0 || len(runs) != 0 {
		t.Fatalf("behind the replay: queue %d, permute paths %+v, runs %v; want all 10 held", q, p, runs)
	}
	h.unhold()
	waitAll(t, append(futs, h.futs...))
	if runs := h.permuteRuns(); len(runs) != 1 || runs[0] != 10 {
		t.Fatalf("permute runs %v, want one of 10", runs)
	}
	if p := h.s.Stats().Paths[Permute]; p.Packed != 10 || p.PerRequest != 0 || p.Replays != 1 {
		t.Fatalf("permute paths %+v, want 10 packed in 1 replay", p)
	}
}

// TestReplayReturnWakesHeldWorkers checks the last replay's return
// wakes every held worker, not only the one that ran it: behind the
// held replay queue 10 Permutes and a SortWords. The SortWords waits
// with the held Permutes while the free worker idles — the hold's
// documented cost to later requests of other kinds — and once the
// replay returns, one worker replays the Permute run and the other
// routes the SortWords while that run is still in flight.
func TestReplayReturnWakesHeldWorkers(t *testing.T) {
	h := newReplayHold(t, 64)
	gate := make(chan struct{})
	openGate := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(openGate)
	h.permGate = gate
	futs := h.submitPermutes(t, 10)
	sw, err := h.s.Submit(context.Background(), Request{Kind: SortWords, Keys: make([]uint64, h.s.N())})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // the free worker wakes, holds and sleeps again
	select {
	case <-sw.Done():
		t.Fatal("SortWords routed while the Permutes ahead of it were held")
	default:
	}
	if q := h.s.QueueLen(); q != 11 {
		t.Fatalf("behind the replay: queue %d, want all 11 queued behind the held run", q)
	}
	h.unhold()
	select {
	case <-sw.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("SortWords stayed queued behind the Permute run in flight: a held worker was not woken")
	}
	openGate()
	waitAll(t, append(append(futs, sw), h.futs...))
	if runs := h.permuteRuns(); len(runs) != 1 || runs[0] != 10 {
		t.Fatalf("permute runs %v, want one of 10", runs)
	}
}

// TestHeldRunTakenAtFullWord checks a held run is claimed as soon as it
// fills one lane word: 64 Permutes queued in two halves behind the
// replay in flight, with time between them for the free worker to
// claim the first half, ride one 64-wide run while that replay is still
// held.
func TestHeldRunTakenAtFullWord(t *testing.T) {
	h := newReplayHold(t, 64)
	futs := h.submitPermutes(t, 32)
	time.Sleep(20 * time.Millisecond)
	waitAll(t, append(futs, h.submitPermutes(t, 32)...))
	if runs := h.permuteRuns(); len(runs) != 1 || runs[0] != 64 {
		t.Fatalf("permute runs %v, want one of 64", runs)
	}
	if p := h.s.Stats().Paths[Permute]; p.Packed != 64 || p.PerRequest != 0 || p.Replays != 1 {
		t.Fatalf("permute paths %+v, want 64 packed in 1 replay", p)
	}
	h.unhold()
	waitAll(t, h.futs)
}

// TestCloseReleasesHeldRun closes the service while a run is held:
// Close releases the held Permutes at once, as one run, and returns
// once the replay in flight is released, with every Future resolved.
func TestCloseReleasesHeldRun(t *testing.T) {
	h := newReplayHold(t, 64)
	futs := h.submitPermutes(t, 10)
	closed := make(chan struct{})
	go func() {
		h.s.Close()
		close(closed)
	}()
	waitAll(t, futs) // released by Close while the replay is still held
	select {
	case <-closed:
		t.Fatal("Close returned with a packed replay still in flight")
	default:
	}
	h.unhold()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the replay was released")
	}
	waitAll(t, h.futs)
	if runs := h.permuteRuns(); len(runs) != 1 || runs[0] != 10 {
		t.Fatalf("permute runs %v, want one of 10", runs)
	}
}

// TestShardedRunNotHeld checks the sharded permuter (n ≥ 65536) is
// never held: its replay routes a run in groups of requests that each
// span several shard lanes, so waiting for a full lane word fills no
// lane. 10 Permutes queued behind a held Concentrate replay all resolve
// while that replay is still in flight.
func TestShardedRunNotHeld(t *testing.T) {
	h := newReplayHold(t, permnet.ShardedAutoThreshold)
	if h.s.loadInst(Permute).perm.Shards() == 0 {
		t.Fatal("Permute plan is not sharded")
	}
	waitAll(t, h.submitPermutes(t, 10))
	h.unhold()
	waitAll(t, h.futs)
}

// pinCosts sets kind's cost cells on the current plan instance (0 leaves
// a cell unobserved). Cells of milliseconds or more pin a timed hold a
// test can see; the first real route or replay may lower them.
func pinCosts(s *Service, kind Kind, scalar, packed time.Duration) {
	inst := s.loadInst(kind)
	inst.scalarNs.Store(int64(scalar))
	inst.packedWordNs.Store(int64(packed))
}

// pinLastRun sets the width of the last run of kind the service
// claimed, up to which a timed hold lets a run of kind grow.
func pinLastRun(s *Service, kind Kind, w int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastRun[kind] = w
}

// holdArmed reports whether the service has ever armed its hold timer.
func holdArmed(s *Service) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.holdTimer != nil
}

// submitAll submits reqs with ctx and returns their Futures.
func submitAll(t *testing.T, s *Service, ctx context.Context, reqs ...Request) []*Future {
	t.Helper()
	futs := make([]*Future, len(reqs))
	for i, req := range reqs {
		var err error
		if futs[i], err = s.Submit(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	return futs
}

// TestUnobservedCostsNeverHold checks nothing is held while either cost
// cell is unobserved: a lone Permute on an idle service resolves per
// request without arming the hold timer, though the one observed cell,
// where there is one, reads an hour.
func TestUnobservedCostsNeverHold(t *testing.T) {
	for _, tc := range []struct {
		name           string
		scalar, packed time.Duration
	}{
		{"unobserved", 0, 0},
		{"scalar only", time.Hour, 0},
		{"packed only", 0, time.Hour},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 64
			s := newTestService(t, Config{N: n, Engine: concentrator.MuxMerger, Workers: 1, QueueDepth: 4})
			pinCosts(s, Permute, tc.scalar, tc.packed)
			pinLastRun(s, Permute, planner.PackedLanes)
			dest := rand.New(rand.NewSource(37)).Perm(n)
			waitAll(t, submitAll(t, s, context.Background(), Request{Kind: Permute, Dest: dest}))
			if holdArmed(s) {
				t.Fatal("the hold timer was armed with a cost cell unobserved")
			}
			if p := s.Stats().Paths[Permute]; p.PerRequest != 1 || p.Packed != 0 {
				t.Fatalf("permute paths %+v, want the lone request routed per request", p)
			}
		})
	}
}

// TestTimedHoldWaitsServeNowCost pins the timed hold's bound: with no
// replay in flight and the cost cells pinned at 30 ms per request and
// 80 ms per packed word, 10 Permutes queued behind a parked worker are
// claimed as one packed run no earlier than min(80, 10 × 30) = 80 ms
// after the head's admission, and well within seconds of it.
func TestTimedHoldWaitsServeNowCost(t *testing.T) {
	const n, r = 64, 10
	const scalar, packed = 30 * time.Millisecond, 80 * time.Millisecond
	wait := min(packed, r*scalar)
	s := newTestService(t, Config{N: n, Engine: concentrator.MuxMerger, Workers: 1, QueueDepth: 16})
	h := newWorkerHold(s)
	var mu sync.Mutex
	var runs []int
	var claimed time.Time
	s.testOnBurst = func(kind Kind, size int) {
		mu.Lock()
		defer mu.Unlock()
		if runs = append(runs, size); len(runs) == 1 {
			claimed = time.Now()
		}
	}
	holdFut := h.hold(t)
	pinCosts(s, Permute, scalar, packed)
	pinLastRun(s, Permute, planner.PackedLanes)
	rng := rand.New(rand.NewSource(41))
	reqs := make([]Request, r)
	for i := range reqs {
		reqs[i] = Request{Kind: Permute, Dest: rng.Perm(n)}
	}
	beforeHead := time.Now()
	futs := submitAll(t, s, context.Background(), reqs...)
	h.unhold()
	waitAll(t, append(futs, holdFut))
	mu.Lock()
	defer mu.Unlock()
	if len(runs) != 1 || runs[0] != r {
		t.Fatalf("permute runs %v, want one of %d", runs, r)
	}
	if d := claimed.Sub(beforeHead); d < wait || d > wait+5*time.Second {
		t.Fatalf("run claimed %v after its head's admission, want from %v to %v", d, wait, wait+5*time.Second)
	}
	if p := s.Stats().Paths[Permute]; p.Packed != r || p.PerRequest != 0 || p.Replays != 1 {
		t.Fatalf("permute paths %+v, want %d packed in 1 replay", p, r)
	}
}

// TestTimedHoldWaitsForLastRunWidth checks a timed hold only waits for
// a run to grow to the width of the last run of its kind claimed, and
// only when that width reaches k* times the worker count. After a claim
// of 64, a lone Permute is held for one per-request route (pinned at
// 30 ms) and then claimed alone; with the cost cells then pinned at an
// hour, the next lone Permute, after that lone claim, is routed at once.
// 10 Permutes queued behind a parked worker after a claim of 10 ride one
// run at once. And with k* pinned at 3, a lone Permute after a claim of
// 2 on one worker, or of 5 on two, is routed at once. None of these
// arms the hold timer.
func TestTimedHoldWaitsForLastRunWidth(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(61))
	t.Run("lone", func(t *testing.T) {
		s := newTestService(t, Config{N: n, Engine: concentrator.MuxMerger, Workers: 1, QueueDepth: 4})
		pinCosts(s, Permute, 30*time.Millisecond, 80*time.Millisecond)
		pinLastRun(s, Permute, planner.PackedLanes)
		waitAll(t, submitAll(t, s, context.Background(), Request{Kind: Permute, Dest: rng.Perm(n)}))
		if !holdArmed(s) {
			t.Fatal("a lone request after a claim of 64 was not held")
		}
		pinCosts(s, Permute, time.Hour, time.Hour)
		waitAll(t, submitAll(t, s, context.Background(), Request{Kind: Permute, Dest: rng.Perm(n)}))
		if p := s.Stats().Paths[Permute]; p.PerRequest != 2 {
			t.Fatalf("permute paths %+v, want both lone requests routed per request", p)
		}
	})
	t.Run("run", func(t *testing.T) {
		const r = 10
		s := newTestService(t, Config{N: n, Engine: concentrator.MuxMerger, Workers: 1, QueueDepth: 16})
		h := newWorkerHold(s)
		holdFut := h.hold(t)
		pinCosts(s, Permute, time.Hour, time.Hour)
		pinLastRun(s, Permute, r)
		reqs := make([]Request, r)
		for i := range reqs {
			reqs[i] = Request{Kind: Permute, Dest: rng.Perm(n)}
		}
		futs := submitAll(t, s, context.Background(), reqs...)
		h.unhold()
		waitAll(t, append(futs, holdFut))
		if holdArmed(s) {
			t.Fatalf("a run of %d after a claim of %d armed the hold timer", r, r)
		}
		if p := s.Stats().Paths[Permute]; p.Packed != r || p.Replays != 1 {
			t.Fatalf("permute paths %+v, want %d packed in 1 replay", p, r)
		}
	})
	for _, tc := range []struct{ workers, last int }{{1, 2}, {2, 5}} {
		t.Run(fmt.Sprintf("claim of %d on %d workers", tc.last, tc.workers), func(t *testing.T) {
			s := newTestService(t, Config{N: n, Engine: concentrator.MuxMerger, Workers: tc.workers, QueueDepth: 4})
			pinCosts(s, Permute, time.Hour, 3*time.Hour) // k* = 3
			pinLastRun(s, Permute, tc.last)
			waitAll(t, submitAll(t, s, context.Background(), Request{Kind: Permute, Dest: rng.Perm(n)}))
			if holdArmed(s) {
				t.Fatalf("a lone request after a claim of %d, below k* × %d workers, armed the hold timer", tc.last, tc.workers)
			}
		})
	}
}

// TestTimedHoldOnlyAtQueueTail checks a run another kind follows is not
// held, since no later request can extend it: with the cost cells
// pinned at an hour, 10 Permutes queued behind a parked worker and
// followed by a SortWords ride one run at once, without arming the hold
// timer, and the SortWords resolves too.
func TestTimedHoldOnlyAtQueueTail(t *testing.T) {
	const n, r = 64, 10
	s := newTestService(t, Config{N: n, Engine: concentrator.MuxMerger, Workers: 1, QueueDepth: 16})
	h := newWorkerHold(s)
	holdFut := h.hold(t)
	pinCosts(s, Permute, time.Hour, time.Hour)
	pinLastRun(s, Permute, planner.PackedLanes)
	rng := rand.New(rand.NewSource(53))
	reqs := make([]Request, r, r+1)
	for i := range reqs {
		reqs[i] = Request{Kind: Permute, Dest: rng.Perm(n)}
	}
	reqs = append(reqs, Request{Kind: SortWords, Keys: make([]uint64, n)})
	futs := submitAll(t, s, context.Background(), reqs...)
	h.unhold()
	waitAll(t, append(futs, holdFut))
	if holdArmed(s) {
		t.Fatal("a run followed by another kind armed the hold timer")
	}
	if p := s.Stats().Paths[Permute]; p.Packed != r || p.Replays != 1 {
		t.Fatalf("permute paths %+v, want %d packed in 1 replay", p, r)
	}
}

// TestTimedHoldEndsBeforeDeadline checks a deadline in a run cuts its
// timed hold short, so the hold never costs a request its deadline.
// With both cost cells pinned at 400 ms, serving the run now costs
// 400 ms. A run whose earliest deadline lies 600 ms after its head's
// admission — a Request.Deadline on the head, or a context deadline on a
// second request — is held until that deadline is 400 ms away, about
// 200 ms in instead of 400. One whose deadline lies only 200 ms out is
// not held at all. Every request succeeds.
func TestTimedHoldEndsBeforeDeadline(t *testing.T) {
	const n = 64
	const cost = 400 * time.Millisecond
	for _, tc := range []struct {
		horizon time.Duration
		onCtx   bool
	}{
		{600 * time.Millisecond, false},
		{600 * time.Millisecond, true},
		{200 * time.Millisecond, false},
		{200 * time.Millisecond, true},
	} {
		t.Run(fmt.Sprintf("%v context %v", tc.horizon, tc.onCtx), func(t *testing.T) {
			s := newTestService(t, Config{N: n, Engine: concentrator.MuxMerger, Workers: 1, QueueDepth: 4})
			pinCosts(s, Permute, cost, cost)
			pinLastRun(s, Permute, planner.PackedLanes)
			var once sync.Once
			var claimed time.Time
			s.testBeforeExec = func() { once.Do(func() { claimed = time.Now() }) }
			rng := rand.New(rand.NewSource(43))
			before := time.Now()
			deadline := before.Add(tc.horizon)
			head := Request{Kind: Permute, Dest: rng.Perm(n)}
			var futs []*Future
			if tc.onCtx {
				ctx, cancel := context.WithDeadline(context.Background(), deadline)
				defer cancel()
				futs = submitAll(t, s, context.Background(), head)
				futs = append(futs, submitAll(t, s, ctx, Request{Kind: Permute, Dest: rng.Perm(n)})...)
			} else {
				head.Deadline = deadline
				futs = submitAll(t, s, context.Background(), head)
			}
			waitAll(t, futs)
			if !claimed.Before(deadline) {
				t.Fatalf("run claimed %v after its head's admission, at or past its deadline", claimed.Sub(before))
			}
			if release := deadline.Add(-cost); tc.horizon > cost &&
				(claimed.Before(release) || claimed.Sub(before) >= cost) {
				t.Fatalf("held run claimed %v after its head's admission, want from %v to before %v",
					claimed.Sub(before), release.Sub(before), cost)
			}
		})
	}
}

// TestCloseStopsHoldTimer closes a service whose hold timer is armed for
// an hour: Close releases the held run at once, returns promptly, stops
// the timer, and resolves every Future.
func TestCloseStopsHoldTimer(t *testing.T) {
	const n, r = 64, 10
	s, err := New(Config{N: n, Engine: concentrator.MuxMerger, Workers: 1, QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	pinCosts(s, Permute, time.Hour, time.Hour)
	pinLastRun(s, Permute, planner.PackedLanes)
	rng := rand.New(rand.NewSource(47))
	reqs := make([]Request, r)
	for i := range reqs {
		reqs[i] = Request{Kind: Permute, Dest: rng.Perm(n)}
	}
	futs := submitAll(t, s, context.Background(), reqs...)
	for start := time.Now(); !holdArmed(s); time.Sleep(time.Millisecond) {
		if time.Since(start) > 10*time.Second {
			t.Fatal("the held run never armed the hold timer")
		}
	}
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return with the hold timer armed")
	}
	for i, fut := range futs {
		select {
		case <-fut.Done():
		default:
			t.Fatalf("request %d unresolved after Close returned", i)
		}
		if _, err := fut.Result(); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	s.mu.Lock()
	stopped := !s.holdTimer.Stop() // false: Close already stopped it
	s.mu.Unlock()
	if !stopped {
		t.Fatal("the hold timer was still armed after Close")
	}
	if p := s.Stats().Paths[Permute]; p.Packed != r || p.Replays != 1 {
		t.Fatalf("permute paths %+v, want the %d held requests released as one run", p, r)
	}
}

// TestClaimWakesIdleWorker checks a claim that leaves tasks queued wakes
// another worker for them. Two workers sleep through a timed hold of an
// hour on 10 Permutes; a SortWords landing behind the run ends the hold,
// and admission wakes one worker, which claims the run and parks in its
// replay. The other worker must take the SortWords at once, not after
// the hold timer or the parked replay.
func TestClaimWakesIdleWorker(t *testing.T) {
	const n, r = 64, 10
	s := newTestService(t, Config{N: n, Engine: concentrator.MuxMerger, Workers: 2, QueueDepth: 16})
	pinCosts(s, Permute, time.Hour, time.Hour)
	pinLastRun(s, Permute, planner.PackedLanes)
	release := make(chan struct{})
	var unpark sync.Once
	t.Cleanup(func() { unpark.Do(func() { close(release) }) }) // before Close
	s.testOnBurst = func(Kind, int) { <-release }
	rng := rand.New(rand.NewSource(59))
	reqs := make([]Request, r)
	for i := range reqs {
		reqs[i] = Request{Kind: Permute, Dest: rng.Perm(n)}
	}
	futs := submitAll(t, s, context.Background(), reqs...)
	for start := time.Now(); !holdArmed(s); time.Sleep(time.Millisecond) {
		if time.Since(start) > 10*time.Second {
			t.Fatal("the held run never armed the hold timer")
		}
	}
	time.Sleep(20 * time.Millisecond) // let both workers fall asleep
	sw := submitAll(t, s, context.Background(), Request{Kind: SortWords, Keys: make([]uint64, n)})
	select {
	case <-sw[0].Done():
	case <-time.After(5 * time.Second):
		t.Fatal("the SortWords waited behind the claimed run with a worker idle")
	}
	unpark.Do(func() { close(release) })
	waitAll(t, append(futs, sw...))
	if p := s.Stats().Paths[Permute]; p.Packed != r || p.Replays != 1 {
		t.Fatalf("permute paths %+v, want %d packed in 1 replay", p, r)
	}
}

// TestDefaultDepthPacks checks a Service with the default QueueDepth
// packs on a two-core box: the depth holds one lane word, so a burst of
// 64 Permutes queued behind two parked workers rides a packed replay.
func TestDefaultDepthPacks(t *testing.T) {
	const n = 64
	s := newTestService(t, Config{N: n, Engine: concentrator.Fish, Workers: 2})
	gate := make(chan struct{})
	openGate := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(openGate) // runs before the service's Close
	var parked atomic.Int32
	s.testBeforeExec = func() {
		if parked.Add(1) <= 2 {
			<-gate
		}
	}
	ctx := context.Background()
	futs := submitAll(t, s, ctx,
		Request{Kind: SortWords, Keys: make([]uint64, n)},
		Request{Kind: SortWords, Keys: make([]uint64, n)})
	for parked.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	rng := rand.New(rand.NewSource(64))
	for i := 0; i < planner.PackedLanes; i++ {
		fut, err := s.TrySubmit(ctx, Request{Kind: Permute, Dest: rng.Perm(n)})
		if err != nil {
			t.Fatalf("TrySubmit of Permute %d at default depth %d: %v", i, s.QueueDepth(), err)
		}
		futs = append(futs, fut)
	}
	openGate()
	waitAll(t, futs)
	if ps := s.Stats().Paths[Permute]; ps.Packed == 0 {
		t.Fatalf("default-depth service never packed: %+v", ps)
	}
}

// TestPackedResultsOwnRows checks the results of one packed replay share
// no backing array, so one unread result pins only its own row.
func TestPackedResultsOwnRows(t *testing.T) {
	const n = 64
	s := newTestService(t, Config{N: n, Engine: concentrator.Fish, Workers: 1, QueueDepth: 128})
	h := newWorkerHold(s)
	var bursts []int
	s.testOnBurst = func(_ Kind, size int) { bursts = append(bursts, size) }
	holdFut := h.hold(t)
	rng := rand.New(rand.NewSource(65))
	futs := make([]*Future, planner.PackedLanes)
	for i := range futs {
		var err error
		if futs[i], err = s.Submit(context.Background(), Request{Kind: Permute, Dest: rng.Perm(n)}); err != nil {
			t.Fatal(err)
		}
	}
	h.unhold()
	waitAll(t, append(futs, holdFut))
	if len(bursts) != 1 || bursts[0] != planner.PackedLanes {
		t.Fatalf("bursts %v, want one of %d", bursts, planner.PackedLanes)
	}
	type span struct{ lo, hi uintptr }
	spans := make([]span, len(futs))
	for i, fut := range futs {
		res, _ := fut.Result()
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(res.Perm)))
		spans[i] = span{lo, lo + uintptr(cap(res.Perm))*unsafe.Sizeof(0)}
	}
	for i, a := range spans {
		for j, b := range spans[:i] {
			if a.lo < b.hi && b.lo < a.hi {
				t.Fatalf("results %d and %d of one packed replay share a backing array", j, i)
			}
		}
	}
}
