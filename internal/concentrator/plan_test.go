package concentrator

import (
	"math/rand"
	"testing"

	"absort/internal/bitvec"
	"absort/internal/planner"
	"absort/internal/race"
)

// mustRoute routes tags through p, failing the test on a validation
// error — the helper form of Route for tests that construct well-formed
// vectors by definition.
func mustRoute(t *testing.T, p *Plan, tags bitvec.Vector) []int {
	t.Helper()
	got, err := p.Route(tags)
	if err != nil {
		t.Fatalf("Route(%v): %v", tags, err)
	}
	return got
}

// scalarRoute dispatches to the seed per-request routing functions.
func scalarRoute(engine Engine, k int, tags bitvec.Vector) []int {
	switch engine {
	case MuxMerger:
		return RouteMuxMerger(tags)
	case PrefixAdder:
		return RoutePrefix(tags)
	case Fish:
		return RouteFish(tags, k)
	case Ranking:
		return RouteRanking(tags)
	}
	panic("unknown engine")
}

// scalarConcentrate is the item-replay reference of c.Concentrate on a
// well-formed pattern within capacity: unmarked inputs are tagged 1 and
// the tags route through scalarRoute at c's resolved k.
func scalarConcentrate(c *Concentrator, marked []bool) ([]int, int) {
	tags := make(bitvec.Vector, len(marked))
	r := 0
	for i, m := range marked {
		if m {
			r++
		} else {
			tags[i] = 1
		}
	}
	return scalarRoute(c.engine, c.k, tags), r
}

// planConfigs enumerates every (n, engine, k) the differential sweeps
// cover exhaustively.
func planConfigs(maxN int) []struct {
	engine Engine
	n, k   int
} {
	var cfgs []struct {
		engine Engine
		n, k   int
	}
	for n := 1; n <= maxN; n *= 2 {
		for _, e := range []Engine{MuxMerger, PrefixAdder, Ranking} {
			cfgs = append(cfgs, struct {
				engine Engine
				n, k   int
			}{e, n, 0})
		}
		for k := 2; k <= n; k *= 2 {
			cfgs = append(cfgs, struct {
				engine Engine
				n, k   int
			}{Fish, n, k})
		}
	}
	return cfgs
}

func equalPerm(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPlanExhaustiveDifferential runs every tag pattern at small widths
// through the compiled plan and the scalar route for every engine: the
// permutations must be identical, not just equivalent.
func TestPlanExhaustiveDifferential(t *testing.T) {
	for _, cfg := range planConfigs(16) {
		p := NewPlan(cfg.n, cfg.engine, cfg.k)
		for x := uint64(0); x < 1<<cfg.n; x++ {
			tags := bitvec.FromUint(x, cfg.n)
			want := scalarRoute(cfg.engine, cfg.k, tags)
			got := mustRoute(t, p, tags)
			if !equalPerm(got, want) {
				t.Fatalf("%v n=%d k=%d tags=%v: plan %v, scalar %v",
					cfg.engine, cfg.n, cfg.k, tags, got, want)
			}
		}
	}
}

// TestPlanRandomDifferential extends the sweep to larger widths with
// random tag vectors.
func TestPlanRandomDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for n := 32; n <= 256; n *= 2 {
		for _, cfg := range []struct {
			engine Engine
			k      int
		}{{MuxMerger, 0}, {PrefixAdder, 0}, {Ranking, 0},
			{Fish, 2}, {Fish, planner.DefaultFishK(n)}, {Fish, n / 2}} {
			p := NewPlan(n, cfg.engine, cfg.k)
			for trial := 0; trial < 50; trial++ {
				tags := bitvec.Random(rng, n)
				want := scalarRoute(cfg.engine, cfg.k, tags)
				got := mustRoute(t, p, tags)
				if !equalPerm(got, want) {
					t.Fatalf("%v n=%d k=%d trial %d: plan %v, scalar %v",
						cfg.engine, n, cfg.k, trial, got, want)
				}
			}
		}
	}
}

// TestPlanRouteIntoAllocFree pins the tentpole property: a compiled plan
// routes with zero steady-state heap allocations.
func TestPlanRouteIntoAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation pin skipped under the race detector: sync.Pool drops a fraction of Puts when instrumented")
	}
	rng := rand.New(rand.NewSource(11))
	for _, cfg := range []struct {
		engine Engine
		k      int
	}{{MuxMerger, 0}, {PrefixAdder, 0}, {Fish, 4}, {Ranking, 0}} {
		n := 256
		p := NewPlan(n, cfg.engine, cfg.k)
		tags := bitvec.Random(rng, n)
		out := make([]int, n)
		p.RouteInto(out, tags) // warm the pool
		if avg := testing.AllocsPerRun(100, func() {
			p.RouteInto(out, tags)
		}); avg != 0 {
			t.Errorf("%v: RouteInto allocates %.1f per run, want 0", cfg.engine, avg)
		}
	}
}

// TestConcentrateIntoAllocFree pins the same property for the
// concentrator front door.
func TestConcentrateIntoAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation pin skipped under the race detector: sync.Pool drops a fraction of Puts when instrumented")
	}
	n := 128
	c := New(n, n, Fish, 4)
	marked := make([]bool, n)
	for i := range marked {
		marked[i] = i%3 == 0
	}
	p := make([]int, n)
	if _, err := c.ConcentrateInto(p, marked); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := c.ConcentrateInto(p, marked); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("ConcentrateInto allocates %.1f per run, want 0", avg)
	}
}

// TestConcentratePlannedMatchesScalar checks the planned concentrator
// front door against the engines' item replays on random request
// patterns, including patterns at exactly capacity.
func TestConcentratePlannedMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, engine := range []Engine{MuxMerger, PrefixAdder, Fish, Ranking} {
		n := 64
		c := New(n, n/2, engine, 4)
		for trial := 0; trial < 100; trial++ {
			marked := make([]bool, n)
			r := rng.Intn(n/2 + 1)
			for _, i := range rng.Perm(n)[:r] {
				marked[i] = true
			}
			wantP, wantR := scalarConcentrate(c, marked)
			gotP, gotR, err := c.Concentrate(marked)
			if err != nil {
				t.Fatal(err)
			}
			if gotR != wantR || !equalPerm(gotP, wantP) {
				t.Fatalf("%v trial %d: planned (%v, %d) != scalar (%v, %d)",
					engine, trial, gotP, gotR, wantP, wantR)
			}
		}
	}
}

// TestConcentrateOverCapacity checks that the planned path rejects
// overloads exactly as the scalar path does.
func TestConcentrateOverCapacity(t *testing.T) {
	c := New(8, 2, MuxMerger, 0)
	marked := []bool{true, true, true, false, false, false, false, false}
	if _, _, err := c.Concentrate(marked); err == nil {
		t.Error("Concentrate accepted 3 requests over capacity 2")
	}
	if _, _, err := c.ConcentrateBatch([][]bool{marked}, 1); err == nil {
		t.Error("ConcentrateBatch accepted 3 requests over capacity 2")
	}
	if _, _, err := c.Concentrate(make([]bool, 4)); err == nil {
		t.Error("Concentrate accepted wrong-width pattern")
	}
}

// TestCompileCached checks the atomic plan cache: repeated Compile calls
// return the identical plan, and the process-wide cache shares plans
// across concentrators with the same configuration.
func TestCompileCached(t *testing.T) {
	c := New(32, 32, Fish, 4)
	p1, p2 := c.Compile(), c.Compile()
	if p1 != p2 {
		t.Error("Compile did not cache the plan")
	}
	d := New(32, 8, Fish, 4)
	if d.Compile() != p1 {
		t.Error("process-wide plan cache did not share (32, fish, 4)")
	}
	if PlanFor(32, MuxMerger, 0) != PlanFor(32, MuxMerger, 7) {
		t.Error("PlanFor did not normalize k for non-fish engines")
	}
}

// TestCompileDefaultFishK checks that a fish concentrator built with
// k ≤ 0 compiles with the paper's k = lg n group-count default.
func TestCompileDefaultFishK(t *testing.T) {
	c := New(64, 64, Fish, 0)
	if got := c.Compile().K(); got != planner.DefaultFishK(64) {
		t.Errorf("default fish k = %d, want %d", got, planner.DefaultFishK(64))
	}
}

// TestPlanRouteBatch checks that an (n,n) concentrator's batch path
// realizes the plan's routing of every tag pattern (marked = !tag), for
// every engine at single- and multi-worker settings, on a batch wide
// enough to pack.
func TestPlanRouteBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 64
	batch := make([]bitvec.Vector, 100)
	marked := make([][]bool, len(batch))
	for i := range batch {
		batch[i] = bitvec.Random(rng, n)
		marked[i] = markedOf(batch[i])
	}
	for _, cfg := range []struct {
		engine Engine
		k      int
	}{{MuxMerger, 0}, {PrefixAdder, 0}, {Fish, 4}, {Ranking, 0}} {
		p := NewPlan(n, cfg.engine, cfg.k)
		c := New(n, n, cfg.engine, cfg.k)
		for _, workers := range []int{1, 4, 0} {
			got, _, err := c.ConcentrateBatch(marked, workers)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", cfg.engine, workers, err)
			}
			if len(got) != len(batch) {
				t.Fatalf("%v workers=%d: %d results for %d inputs",
					cfg.engine, workers, len(got), len(batch))
			}
			for i, tags := range batch {
				if want := mustRoute(t, p, tags); !equalPerm(got[i], want) {
					t.Fatalf("%v workers=%d input %d: batch %v, single %v",
						cfg.engine, workers, i, got[i], want)
				}
			}
		}
	}
}

// TestConcentrateBatch checks the batch concentrator front door against
// the sequential planned path.
func TestConcentrateBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	n := 32
	c := New(n, n, PrefixAdder, 0)
	batch := make([][]bool, 64)
	for i := range batch {
		batch[i] = make([]bool, n)
		for j := range batch[i] {
			batch[i][j] = rng.Intn(2) == 0
		}
	}
	perms, rs, err := c.ConcentrateBatch(batch, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, marked := range batch {
		wantP, wantR, err := c.Concentrate(marked)
		if err != nil {
			t.Fatal(err)
		}
		if rs[i] != wantR || !equalPerm(perms[i], wantP) {
			t.Fatalf("pattern %d: batch (%v, %d) != single (%v, %d)",
				i, perms[i], rs[i], wantP, wantR)
		}
	}
	if perms, rs, err := c.ConcentrateBatch(nil, 0); perms != nil || rs != nil || err != nil {
		t.Error("ConcentrateBatch(nil) != (nil, nil, nil)")
	}
}

// TestPlanBatchAmortizedAllocs pins the batch pipeline's allocation
// behavior on both paths: per-request amortized allocations stay at the
// flat result backing (a handful of allocations per batch regardless of
// batch size).
func TestPlanBatchAmortizedAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation pin skipped under the race detector: sync.Pool drops a fraction of Puts when instrumented")
	}
	rng := rand.New(rand.NewSource(15))
	n := 128
	c := New(n, n, Fish, 4)
	batch := make([][]bool, 256)
	for i := range batch {
		batch[i] = markedOf(bitvec.Random(rng, n))
	}
	for _, route := range []struct {
		name string
		fn   func([][]bool, int) ([][]int, []int, error)
	}{{"ConcentrateBatch", c.ConcentrateBatch}, {"ConcentrateBatchPlanned", c.ConcentrateBatchPlanned}} {
		if _, _, err := route.fn(batch, 1); err != nil { // warm the pool
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(20, func() {
			if _, _, err := route.fn(batch, 1); err != nil {
				t.Fatal(err)
			}
		})
		perItem := avg / float64(len(batch))
		if perItem > 0.05 {
			t.Errorf("%s allocates %.3f per request (%.1f per batch), want amortized ~0",
				route.name, perItem, avg)
		}
	}
}

// TestConcentrateProperty cross-checks the planned route against the
// concentrator contract: marked inputs land on outputs 0..r-1.
func TestConcentrateProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, engine := range []Engine{MuxMerger, PrefixAdder, Fish, Ranking} {
		n := 128
		c := New(n, n, engine, 8)
		for trial := 0; trial < 25; trial++ {
			marked := make([]bool, n)
			for i := range marked {
				marked[i] = rng.Intn(3) == 0
			}
			p, r, err := c.Concentrate(marked)
			if err != nil {
				t.Fatal(err)
			}
			seen := make([]bool, n)
			for j, i := range p {
				if seen[i] {
					t.Fatalf("%v: output %d duplicates input %d", engine, j, i)
				}
				seen[i] = true
				if (j < r) != marked[i] {
					t.Fatalf("%v: output %d receives input %d (marked=%v), r=%d",
						engine, j, i, marked[i], r)
				}
			}
		}
	}
}
