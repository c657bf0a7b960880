package serve

// Tests of the burst drain's measured packing threshold: the break-even
// width k*, bursts of every interesting width routed bit-identically to
// the per-request path, the per-path counters, and recovery re-learning
// the cost cells.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"absort/internal/cmpnet"
	"absort/internal/concentrator"
	"absort/internal/core"
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
	pi.observePacked(2000*time.Nanosecond, 64)  // one word: 2000 ns/word
	pi.observePacked(3000*time.Nanosecond, 65)  // two words: 1500 ns/word
	pi.observePacked(5000*time.Nanosecond, 200) // four words: 1250 ns/word
	pi.observePacked(9000*time.Nanosecond, 2)   // one word: not a new minimum
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
// the widths straddle the old MinPackedLanes = 24 rule, one lane word
// (64) and the first two-word group (65). Two further bursts take the
// fallback paths: a Permute burst carrying a malformed permutation
// (RoutePacked fails, the group re-routes per request) and a
// Concentrate burst with over-capacity patterns on an (n, n/2)
// concentrator (those resolve alone with the capacity error).
func TestServeBurstWidthsDifferential(t *testing.T) {
	widths := []int{2, 3, 7, 23, 24, 63, 64, 65}
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

			// round queues reqs behind a held worker, releases them as one
			// burst and checks every response against the reference.
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
				if len(bursts) != 1 || bursts[0] != len(reqs) {
					t.Fatalf("%s: bursts %v, want one of %d", name, bursts, len(reqs))
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
				for _, kind := range []Kind{Permute, Concentrate} {
					if d := after[kind].Packed - before[kind].Packed; d != int64(k) {
						t.Fatalf("%v ×%d: %d requests packed, want all %d", kind, k, d, k)
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
			if after.Packed != before.Packed || after.PerRequest-before.PerRequest != int64(len(bad)) {
				t.Fatalf("malformed burst paths %+v → %+v, want all %d per request", before, after, len(bad))
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
// kinds, Packed + PerRequest is Completed, and BreakEven is reported
// only for the packable kinds.
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

// TestCarriedTailHonoursCancel checks that carrying a tail does not
// exempt it from its context: a deadline-free Permute tail whose context
// is cancelled while the Concentrate burst ahead of it replays resolves
// with the cancellation, unrouted, and Close still drains everything.
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
			cancel() // the tail is carried, not yet routed
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
		t.Fatalf("cancelled carried tail resolved with %v, want context.Canceled", err)
	}
	if p := s.Stats().Paths[Permute]; p.Carried != 1 || p.Packed != 0 || p.PerRequest != 1 {
		t.Fatalf("permute paths %+v, want the tail carried once and resolved per request", p)
	}
}
