package concentrator

// Tests for the bounded plan cache and the fail-fast batch pipeline:
// eviction must never invalidate a plan already handed out, PlanFor must
// stay correct across recompilation of evicted entries, and a poisoned
// batch must abort instead of routing every remaining request.

import (
	"math/rand"
	"sync"
	"testing"

	"absort/internal/bitvec"
	"absort/internal/planner"
)

// TestPlanLRUEviction exercises the shared LRU's mechanics directly,
// instantiated over concentrator plans exactly as PlanFor uses it.
func TestPlanLRUEviction(t *testing.T) {
	lru := planner.NewCache[planner.PlanKey, *Plan](2)
	k := func(n int) planner.PlanKey {
		return planner.PlanKey{Kind: planner.KindConcentrator, N: n, Engine: int8(MuxMerger)}
	}
	p2, p4, p8 := NewPlan(2, MuxMerger, 0), NewPlan(4, MuxMerger, 0), NewPlan(8, MuxMerger, 0)
	lru.Add(k(2), p2)
	lru.Add(k(4), p4)
	if got, ok := lru.Get(k(2)); !ok || got != p2 {
		t.Fatal("k(2) missing after two inserts")
	}
	// k(2) is now most recent, so inserting k(8) must evict k(4).
	lru.Add(k(8), p8)
	if lru.Len() != 2 {
		t.Fatalf("len = %d, want 2", lru.Len())
	}
	if _, ok := lru.Get(k(4)); ok {
		t.Error("least recently used entry survived eviction")
	}
	if _, ok := lru.Get(k(2)); !ok {
		t.Error("recently used entry evicted")
	}
	// LoadOrStore semantics: re-adding an existing key keeps the original.
	if got := lru.Add(k(8), NewPlan(8, MuxMerger, 0)); got != p8 {
		t.Error("add replaced an existing entry")
	}
	// SetCap trims immediately.
	if prev := lru.SetCap(1); prev != 2 {
		t.Errorf("SetCap returned %d, want 2", prev)
	}
	if lru.Len() != 1 {
		t.Errorf("len after SetCap(1) = %d", lru.Len())
	}
}

// TestPlanForBounded sweeps more (n, engine, k) configurations than the
// cache holds and checks the bound, plus correctness of a plan that was
// evicted and recompiled.
func TestPlanForBounded(t *testing.T) {
	prev := planner.Shared.SetCap(4)
	defer planner.Shared.SetCap(prev)

	first := PlanFor(16, MuxMerger, 0)
	rng := rand.New(rand.NewSource(61))
	tags := bitvec.Random(rng, 16)
	want := mustRoute(t, first, tags)

	// Sweep enough distinct configurations to evict everything.
	for _, n := range []int{2, 4, 8, 32, 64, 128} {
		for _, e := range []Engine{MuxMerger, PrefixAdder, Ranking} {
			PlanFor(n, e, 0)
		}
	}
	if got := planner.Shared.Len(); got > 4 {
		t.Fatalf("plan cache grew to %d entries past its bound of 4", got)
	}
	// The evicted plan pointer we hold is still fully usable...
	if got := mustRoute(t, first, tags); !equalPerm(got, want) {
		t.Fatalf("evicted plan routes %v, want %v", got, want)
	}
	// ...and a fresh PlanFor recompiles an identical plan.
	again := PlanFor(16, MuxMerger, 0)
	if got := mustRoute(t, again, tags); !equalPerm(got, want) {
		t.Fatalf("recompiled plan routes %v, want %v", got, want)
	}
	// A k-sweep over fish configurations stays bounded too.
	for _, k := range []int{2, 4, 8, 16} {
		PlanFor(64, Fish, k)
	}
	if got := planner.Shared.Len(); got > 4 {
		t.Fatalf("fish k-sweep grew the cache to %d entries", got)
	}
}

// TestPlanForConcurrent hammers PlanFor from many goroutines across a
// window wider than the cache (run with -race to check the LRU locking).
func TestPlanForConcurrent(t *testing.T) {
	prev := planner.Shared.SetCap(3)
	defer planner.Shared.SetCap(prev)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sizes := []int{2, 4, 8, 16, 32}
			for i := 0; i < 50; i++ {
				n := sizes[(i+w)%len(sizes)]
				p := PlanFor(n, PrefixAdder, 0)
				if p.N() != n {
					t.Errorf("PlanFor(%d) returned plan of width %d", n, p.N())
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestRouteBatchMalformedError pins the bugfix: a malformed request in a
// batch returns an error instead of panicking, on both batch paths.
func TestRouteBatchMalformedError(t *testing.T) {
	c := New(8, 8, MuxMerger, 0)
	good := make([]bool, 8)
	bad := make([]bool, 5)
	for _, size := range []int{3, 2 * PackedLanes} {
		batch := make([][]bool, size)
		for i := range batch {
			batch[i] = good
		}
		batch[1] = bad
		out, counts, err := c.ConcentrateBatch(batch, 2)
		if err == nil {
			t.Fatalf("batch of %d: malformed pattern accepted", size)
		}
		if out != nil || counts != nil {
			t.Fatalf("batch of %d: error with non-nil results", size)
		}
	}
}

// TestConcentrateBatchFailsFast checks the poisoned-batch path end to
// end: the batch errors, and (with one worker, deterministically) the
// remaining patterns are never routed.
func TestConcentrateBatchFailsFast(t *testing.T) {
	n := 16
	c := New(n, 2, MuxMerger, 0)
	over := make([]bool, n)
	for i := range over {
		over[i] = true // exceeds capacity m=2
	}
	ok := make([]bool, n)
	ok[3] = true
	batch := make([][]bool, 64)
	batch[0] = over
	for i := 1; i < len(batch); i++ {
		batch[i] = ok
	}
	if _, _, err := c.ConcentrateBatch(batch, 1); err == nil {
		t.Fatal("over-capacity pattern accepted")
	}
	// Multi-worker: still errors, no panic, results discarded.
	if perms, rs, err := c.ConcentrateBatch(batch, 4); err == nil || perms != nil || rs != nil {
		t.Fatalf("multi-worker poisoned batch: perms=%v rs=%v err=%v", perms != nil, rs != nil, err)
	}
}
