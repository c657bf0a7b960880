package serve

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"absort/internal/concentrator"
	"absort/internal/core"
	"absort/internal/permnet"
	"absort/internal/planner"
)

// submitWait submits one request and waits for its result.
func submitWait(t *testing.T, s *Service, req Request) (Result, error) {
	t.Helper()
	fut, err := s.Submit(context.Background(), req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	return fut.Wait(context.Background())
}

func TestInjectFaultValidation(t *testing.T) {
	s := newTestService(t, Config{N: 16, Engine: concentrator.MuxMerger, Workers: 1, QueueDepth: 4, WordBits: 8})
	cases := []struct {
		f    WireFault
		want string
	}{
		{WireFault{Kind: Permute, Pos: 0, Bit: 0, Stuck: 2}, "stuck value"},
		{WireFault{Kind: Permute, Pos: -1, Bit: 0, Stuck: 1}, "position"},
		{WireFault{Kind: Permute, Pos: 16, Bit: 0, Stuck: 1}, "position"},
		{WireFault{Kind: Permute, Pos: 0, Bit: 4, Stuck: 1}, "destination bit"},
		{WireFault{Kind: Permute, Pos: 0, Bit: -1, Stuck: 1}, "destination bit"},
		{WireFault{Kind: SortWords, Pos: 0, Bit: 0, Stuck: 1}, "does not support injection"},
	}
	for _, tc := range cases {
		err := s.InjectFault(tc.f)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("InjectFault(%+v) = %v, want %q", tc.f, err, tc.want)
		}
	}
}

// TestInjectFaultDetectRecover wedges a destination wire of the live
// permute instance with every response checked, then pins the full
// fault path: detection, one recompile onto a spare, a verified replay,
// and a correct result back on the wedged request's Future.
func TestInjectFaultDetectRecover(t *testing.T) {
	for _, engine := range []Engine{
		concentrator.MuxMerger, concentrator.PrefixAdder, concentrator.Fish, concentrator.Ranking,
	} {
		engine := engine
		t.Run(engine.String(), func(t *testing.T) {
			const n = 16
			s := newTestService(t, Config{
				N: n, Engine: engine, Workers: 1, QueueDepth: 4, WordBits: 8,
				CheckFraction: 1,
			})
			rng := rand.New(rand.NewSource(7))
			// Mid-window position with the top destination bit stuck high:
			// misroutes on every engine (position 0 would be absorbed by
			// Ranking's stable partition).
			if err := s.InjectFault(WireFault{Kind: Permute, Pos: 1, Bit: core.Lg(n) - 1, Stuck: 1}); err != nil {
				t.Fatalf("InjectFault: %v", err)
			}
			for trial := 0; trial < 24; trial++ {
				dest := rng.Perm(n)
				res, err := submitWait(t, s, Request{Kind: Permute, Dest: dest})
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				for j, i := range res.Perm {
					if dest[i] != j {
						t.Fatalf("trial %d: output %d holds input %d destined for %d", trial, j, i, dest[i])
					}
				}
			}
			fs := s.FaultStats()
			if fs.Detected < 1 || fs.Recompiled < 1 || fs.Replayed < 1 {
				t.Fatalf("fault stats after recovery: %+v", fs)
			}
			if eng, err := s.ActiveEngine(Permute); err != nil || eng != engine {
				t.Fatalf("ActiveEngine(Permute) = %v, %v; want spare on %v", eng, err, engine)
			}
		})
	}
}

// TestConcentrateFaultRecover wedges the concentrator's tag wire
// stuck-at-0 (stuck-at-1 at position 0 is provably absorbed by the
// Ranking engine's stable partition) and pins detection plus recovery.
func TestConcentrateFaultRecover(t *testing.T) {
	const n = 16
	s := newTestService(t, Config{
		N: n, Engine: concentrator.Fish, Workers: 1, QueueDepth: 4, WordBits: 8,
		CheckFraction: 1,
	})
	if err := s.InjectFault(WireFault{Kind: Concentrate, Pos: 0, Stuck: 0}); err != nil {
		t.Fatalf("InjectFault: %v", err)
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 8; trial++ {
		marked := make([]bool, n)
		for j := range marked {
			marked[j] = rng.Intn(2) == 0
		}
		res, err := submitWait(t, s, Request{Kind: Concentrate, Marked: marked})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := s.checker.CheckConcentrate(marked, res.Perm, res.Count); err != nil {
			t.Fatalf("trial %d: wrong result survived recovery: %v", trial, err)
		}
	}
	fs := s.FaultStats()
	if fs.Detected < 1 || fs.Recompiled < 1 || fs.Replayed < 1 {
		t.Fatalf("fault stats after recovery: %+v", fs)
	}
}

// TestRecoveryEngineFallback exhausts the spare budget (Spares: -1
// disables spares entirely), forcing recovery onto the engine rotation.
func TestRecoveryEngineFallback(t *testing.T) {
	const n = 16
	s := newTestService(t, Config{
		N: n, Engine: concentrator.MuxMerger, Workers: 1, QueueDepth: 4, WordBits: 8,
		CheckFraction: 1, Spares: -1,
	})
	if err := s.InjectFault(WireFault{Kind: Permute, Pos: 1, Bit: core.Lg(n) - 1, Stuck: 1}); err != nil {
		t.Fatal(err)
	}
	dest := rand.New(rand.NewSource(3)).Perm(n)
	res, err := submitWait(t, s, Request{Kind: Permute, Dest: dest})
	if err != nil {
		t.Fatal(err)
	}
	for j, i := range res.Perm {
		if dest[i] != j {
			t.Fatalf("output %d holds input %d destined for %d", j, i, dest[i])
		}
	}
	eng, err := s.ActiveEngine(Permute)
	if err != nil {
		t.Fatal(err)
	}
	if eng == concentrator.MuxMerger {
		t.Fatalf("ActiveEngine(Permute) still %v after no-spare recovery", eng)
	}
}

// TestConcentrateDegradedService drives the concentrator through its
// full fallback chain — the test hook re-wedges every replacement
// instance, so spares and every engine in the registry rotation
// quarantine — and pins that requests are then served correctly through
// the permuter (degraded mode) with the degraded counter advancing.
func TestConcentrateDegradedService(t *testing.T) {
	const n = 16
	s := newTestService(t, Config{
		N: n, Engine: concentrator.MuxMerger, Workers: 1, QueueDepth: 4, WordBits: 8,
		CheckFraction: 1, Spares: -1,
	})
	// Re-wedge every fresh concentrator instance as soon as recovery
	// installs it, until only degraded service remains.
	rewedge := func() {
		if inst := s.loadInst(Concentrate); inst.conc != nil && inst.faults.Load() == nil {
			inst.addFault(concentrator.TagFault(0, 0))
		}
	}
	s.testBeforeExec = rewedge
	rewedge()
	rng := rand.New(rand.NewSource(11))
	// The stuck-at-0 tag wire only misroutes patterns with input 0
	// unmarked, so pin marked[0] = false: every trial then detects and
	// quarantines one engine, and the open-world rotation (the registry
	// can grow) exhausts within NumEngines trials plus slack.
	trials := planner.NumEngines() + 2
	for trial := 0; trial < trials; trial++ {
		marked := make([]bool, n)
		for j := 1; j < n; j++ {
			marked[j] = rng.Intn(2) == 0
		}
		res, err := submitWait(t, s, Request{Kind: Concentrate, Marked: marked})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := s.checker.CheckConcentrate(marked, res.Perm, res.Count); err != nil {
			t.Fatalf("trial %d: wrong result: %v", trial, err)
		}
	}
	if !s.Degraded() {
		t.Fatal("concentrator never degraded to permuter-backed service")
	}
	if fs := s.FaultStats(); fs.Degraded < 1 {
		t.Fatalf("fault stats: %+v, want Degraded ≥ 1", fs)
	}
	// Degraded mode still enforces the capacity contract.
	sCap := newTestService(t, Config{
		N: n, M: 4, Engine: concentrator.MuxMerger, Workers: 1, QueueDepth: 4, WordBits: 8,
	})
	sCap.inst[Concentrate].Store(&planInstance{engine: concentrator.MuxMerger, degraded: true})
	over := make([]bool, n)
	for j := 0; j < 5; j++ {
		over[j] = true
	}
	if _, err := submitWait(t, sCap, Request{Kind: Concentrate, Marked: over}); err == nil ||
		!strings.Contains(err.Error(), "exceed capacity") {
		t.Fatalf("degraded over-capacity error = %v", err)
	}
	// Injection into a degraded instance is rejected.
	if err := sCap.InjectFault(WireFault{Kind: Concentrate, Pos: 0, Stuck: 0}); err == nil ||
		!strings.Contains(err.Error(), "degraded") {
		t.Fatalf("InjectFault on degraded instance = %v", err)
	}
}

// TestClearFaults pins that a repaired wire stops misrouting without a
// recompile: no recovery counter advances afterwards.
func TestClearFaults(t *testing.T) {
	const n = 16
	s := newTestService(t, Config{
		N: n, Engine: concentrator.PrefixAdder, Workers: 1, QueueDepth: 4, WordBits: 8,
		CheckFraction: 1,
	})
	if err := s.InjectFault(WireFault{Kind: Permute, Pos: 1, Bit: core.Lg(n) - 1, Stuck: 1}); err != nil {
		t.Fatal(err)
	}
	s.ClearFaults(Permute)
	dest := rand.New(rand.NewSource(5)).Perm(n)
	res, err := submitWait(t, s, Request{Kind: Permute, Dest: dest})
	if err != nil {
		t.Fatal(err)
	}
	for j, i := range res.Perm {
		if dest[i] != j {
			t.Fatalf("output %d holds input %d destined for %d", j, i, dest[i])
		}
	}
	if fs := s.FaultStats(); fs.Detected != 0 || fs.Recompiled != 0 {
		t.Fatalf("cleared fault still triggered recovery: %+v", fs)
	}
}

func TestStrideFor(t *testing.T) {
	cases := []struct {
		f    float64
		want uint64
	}{
		{-1, 0},
		{0, defaultCheckStride},
		{1, 1},
		{2, 1},
		{0.5, 2},
		{1.0 / 64, 64},
		{1e-9, 1000000000},
	}
	for _, tc := range cases {
		if got := strideFor(tc.f); got != tc.want {
			t.Fatalf("strideFor(%v) = %d, want %d", tc.f, got, tc.want)
		}
	}
}

// TestCheckFractionDisabled pins that CheckFraction < 0 turns the
// checker off entirely: a wedged wire misroutes silently.
func TestCheckFractionDisabled(t *testing.T) {
	const n = 16
	s := newTestService(t, Config{
		N: n, Engine: concentrator.MuxMerger, Workers: 1, QueueDepth: 4, WordBits: 8,
		CheckFraction: -1,
	})
	if err := s.InjectFault(WireFault{Kind: Permute, Pos: 1, Bit: core.Lg(n) - 1, Stuck: 1}); err != nil {
		t.Fatal(err)
	}
	misroutes := 0
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 16; trial++ {
		dest := rng.Perm(n)
		res, err := submitWait(t, s, Request{Kind: Permute, Dest: dest})
		if err != nil {
			t.Fatal(err)
		}
		for j, i := range res.Perm {
			if dest[i] != j {
				misroutes++
				break
			}
		}
	}
	if misroutes == 0 {
		t.Fatal("wedged wire never misrouted with checking disabled")
	}
	if fs := s.FaultStats(); fs.Checked != 0 || fs.Detected != 0 {
		t.Fatalf("disabled checker still ran: %+v", fs)
	}
}

// TestPlanSetShardedCutover checks a plan set at n =
// ShardedAutoThreshold serves Permute, and degraded Concentrate, through
// the shared default-shard plan ShardedPlanFor(n, e, 0) bit for bit
// without adding the flat KindPermuter plan to planner.Shared, and that
// InjectFault on the sharded Permute instance returns its error and
// stores no fault.
func TestPlanSetShardedCutover(t *testing.T) {
	n, e := permnet.ShardedAutoThreshold, concentrator.MuxMerger
	p, err := NewPlanSet(Config{N: n, Engine: e, WordBits: 1})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := permnet.ShardedPlanFor(n, e, 0)
	if err != nil {
		t.Fatal(err)
	}
	inst := p.loadInst(Permute)
	if inst.perm != sp {
		t.Fatalf("Permute plan is %T, want ShardedPlanFor(n, e, 0)", inst.perm)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(17))
	dest := rng.Perm(n)
	want, err := sp.Route(dest)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Exec(ctx, Request{Kind: Permute, Dest: dest}, time.Now())
	if err != nil || !slices.Equal(res.Perm, want) {
		t.Fatalf("Permute: err %v or result differs from the sharded plan", err)
	}

	p.inst[Concentrate].Store(&planInstance{engine: e, degraded: true})
	marked := make([]bool, n)
	split := make([]int, n) // the stable split degraded service routes
	r := 0
	for j := range marked {
		if marked[j] = rng.Intn(2) == 0; marked[j] {
			r++
		}
	}
	z, o := 0, r
	for j, m := range marked {
		if m {
			split[j] = z
			z++
		} else {
			split[j] = o
			o++
		}
	}
	if want, err = sp.Route(split); err != nil {
		t.Fatal(err)
	}
	res, err = p.Exec(ctx, Request{Kind: Concentrate, Marked: marked}, time.Now())
	if err != nil || res.Count != r || !slices.Equal(res.Perm, want) {
		t.Fatalf("degraded Concentrate: err %v, count %d (want %d), or result differs from the sharded plan",
			err, res.Count, r)
	}

	if err := p.InjectFault(WireFault{Kind: Permute, Pos: 0, Bit: 0, Stuck: 1}); err == nil ||
		!strings.Contains(err.Error(), "sharded") {
		t.Fatalf("InjectFault on the sharded Permute instance = %v", err)
	}
	if inst.faults.Load() != nil {
		t.Fatal("InjectFault stored a fault on the sharded Permute instance")
	}
	key := planner.PlanKey{Kind: planner.KindPermuter, N: n, Engine: int8(e)}
	if _, ok := planner.Shared.Get(key); ok {
		t.Errorf("flat KindPermuter plan at n=%d landed in planner.Shared", n)
	}
}
