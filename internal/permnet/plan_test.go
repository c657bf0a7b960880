package permnet

import (
	"math/rand"
	"testing"
	"testing/quick"

	"absort/internal/concentrator"
	"absort/internal/race"
)

var planEngines = []struct {
	name   string
	engine concentrator.Engine
	k      int
}{
	{"muxmerger", concentrator.MuxMerger, 0},
	{"prefix", concentrator.PrefixAdder, 0},
	{"fish", concentrator.Fish, 0},
	{"fish-k2", concentrator.Fish, 2},
	{"ranking", concentrator.Ranking, 0},
}

// inverse returns dest⁻¹, the permutation the radix permuter realizes
// for the assignment dest (out[j] = in[dest⁻¹(j)]) whichever binary
// sorter distributes it: the differential oracle independent of every
// router.
func inverse(dest []int) []int {
	inv := make([]int, len(dest))
	for i, d := range dest {
		inv[d] = i
	}
	return inv
}

func permEqual(a, b []int) bool {
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

// TestPlannedExhaustiveSmall routes every permutation at n ∈ {2, 4, 8}
// through the compiled plan: every engine must realize dest⁻¹.
func TestPlannedExhaustiveSmall(t *testing.T) {
	for _, cfg := range planEngines {
		if cfg.k > 2 {
			continue
		}
		for _, n := range []int{2, 4, 8} {
			if cfg.k > n {
				continue
			}
			rp := NewRadixPermuter(n, cfg.engine, cfg.k)
			dest := make([]int, n)
			var rec func(used uint, depth int)
			rec = func(used uint, depth int) {
				if depth == n {
					got, err := rp.Compile().Route(dest)
					if err != nil {
						t.Fatal(err)
					}
					if want := inverse(dest); !permEqual(got, want) {
						t.Fatalf("%s n=%d dest=%v: planned %v, dest⁻¹ %v",
							cfg.name, n, dest, got, want)
					}
					return
				}
				for v := 0; v < n; v++ {
					if used&(1<<v) == 0 {
						dest[depth] = v
						rec(used|(1<<v), depth+1)
					}
				}
			}
			rec(0, 0)
		}
	}
}

// TestPlannedQuickPermutations drives larger widths with testing/quick:
// every generated seed yields a random permutation that must route to
// dest⁻¹ through the plan and through RadixPermuter.Route.
func TestPlannedQuickPermutations(t *testing.T) {
	for _, cfg := range planEngines {
		for _, n := range []int{16, 64, 256} {
			rp := NewRadixPermuter(n, cfg.engine, cfg.k)
			plan := rp.Compile()
			f := func(seed int64) bool {
				dest := rand.New(rand.NewSource(seed)).Perm(n)
				want := inverse(dest)
				got, err := plan.Route(dest)
				if err != nil {
					return false
				}
				viaRoute, err := rp.Route(dest)
				if err != nil {
					return false
				}
				return permEqual(got, want) && permEqual(viaRoute, want)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
				t.Errorf("%s n=%d: %v", cfg.name, n, err)
			}
		}
	}
}

// TestRouteIntoAllocFree pins the tentpole property: the compiled radix
// route performs zero steady-state heap allocations.
func TestRouteIntoAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation pin skipped under the race detector: sync.Pool drops a fraction of Puts when instrumented")
	}
	rng := rand.New(rand.NewSource(22))
	for _, cfg := range planEngines {
		n := 256
		rp := NewRadixPermuter(n, cfg.engine, cfg.k)
		dest := rng.Perm(n)
		out := make([]int, n)
		if err := rp.Compile().RouteInto(out, dest); err != nil {
			t.Fatal(err)
		}
		if avg := testing.AllocsPerRun(100, func() {
			if err := rp.Compile().RouteInto(out, dest); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("%s: RouteInto allocates %.1f per run, want 0", cfg.name, avg)
		}
	}
}

// TestRouteBatchDifferential checks batch routing against per-request
// planned routing across worker counts, plus order preservation.
func TestRouteBatchDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n := 128
	dests := make([][]int, 80)
	for i := range dests {
		dests[i] = rng.Perm(n)
	}
	for _, cfg := range planEngines {
		rp := NewRadixPermuter(n, cfg.engine, cfg.k)
		for _, workers := range []int{1, 3, 0} {
			got, err := rp.Compile().RouteBatch(dests, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i, dest := range dests {
				want, err := rp.Compile().Route(dest)
				if err != nil {
					t.Fatal(err)
				}
				if !permEqual(got[i], want) {
					t.Fatalf("%s workers=%d request %d: batch %v != single %v",
						cfg.name, workers, i, got[i], want)
				}
			}
		}
	}
}

// TestRouteBatchAmortizedAllocs pins the per-request amortized allocation
// behavior of the batch pipeline.
func TestRouteBatchAmortizedAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation pin skipped under the race detector: sync.Pool drops a fraction of Puts when instrumented")
	}
	rng := rand.New(rand.NewSource(24))
	n := 256
	rp := NewRadixPermuter(n, concentrator.Fish, 0)
	dests := make([][]int, 128)
	for i := range dests {
		dests[i] = rng.Perm(n)
	}
	plan := rp.Compile()
	if _, err := plan.RouteBatch(dests, 1); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := plan.RouteBatch(dests, 1); err != nil {
			t.Fatal(err)
		}
	})
	if perItem := avg / float64(len(dests)); perItem > 0.05 {
		t.Errorf("batch routing allocates %.3f per request (%.1f per batch), want amortized ~0",
			perItem, avg)
	}
}

// TestRoutePlanErrors checks planned-path validation: wrong widths and
// non-permutations are rejected, alone and in batches.
func TestRoutePlanErrors(t *testing.T) {
	rp := NewRadixPermuter(8, concentrator.MuxMerger, 0)
	if _, err := rp.Compile().Route([]int{0, 1, 2}); err == nil {
		t.Error("Route accepted wrong width")
	}
	if _, err := rp.Compile().Route([]int{0, 0, 1, 2, 3, 4, 5, 6}); err == nil {
		t.Error("Route accepted a non-permutation")
	}
	if _, err := rp.Compile().Route([]int{0, 1, 2, 3, 4, 5, 6, 9}); err == nil {
		t.Error("Route accepted an out-of-range destination")
	}
	good := []int{1, 0, 3, 2, 5, 4, 7, 6}
	bad := []int{0, 0, 1, 2, 3, 4, 5, 6}
	if _, err := rp.Compile().RouteBatch([][]int{good, bad}, 2); err == nil {
		t.Error("RouteBatch accepted a batch containing a non-permutation")
	}
	if out, err := rp.Compile().RouteBatch(nil, 2); out != nil || err != nil {
		t.Error("RouteBatch(nil) != (nil, nil)")
	}
}

// TestCompileShared checks the atomic plan cache and the cross-permuter
// sharing of per-level concentrator plans.
func TestCompileShared(t *testing.T) {
	rp := NewRadixPermuter(64, concentrator.Fish, 0)
	if rp.Compile() != rp.Compile() {
		t.Error("Compile did not cache the plan")
	}
	if got := rp.Compile().NumLevels(); got != 6 {
		t.Errorf("NumLevels = %d, want 6", got)
	}
}

// FuzzPlannedVsRoute fuzzes the planned path and RadixPermuter.Route
// against dest⁻¹ over every engine: the fuzzer picks a width, an engine,
// and a permutation seed.
func FuzzPlannedVsRoute(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(0))
	f.Add(int64(2), uint8(5), uint8(2))
	f.Add(int64(3), uint8(3), uint8(1))
	f.Add(int64(4), uint8(6), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, lgn uint8, engSel uint8) {
		n := 1 << (1 + lgn%6) // n ∈ {2, 4, ..., 64}
		cfg := planEngines[int(engSel)%len(planEngines)]
		if cfg.k > n {
			t.Skip()
		}
		rp := NewRadixPermuter(n, cfg.engine, cfg.k)
		dest := rand.New(rand.NewSource(seed)).Perm(n)
		want := inverse(dest)
		got, err := rp.Compile().Route(dest)
		if err != nil {
			t.Fatal(err)
		}
		if !permEqual(got, want) {
			t.Fatalf("%s n=%d dest=%v: planned %v, dest⁻¹ %v", cfg.name, n, dest, got, want)
		}
		viaRoute, err := rp.Route(dest)
		if err != nil {
			t.Fatal(err)
		}
		if !permEqual(viaRoute, want) {
			t.Fatalf("%s n=%d dest=%v: Route %v, dest⁻¹ %v", cfg.name, n, dest, viaRoute, want)
		}
	})
}
