package permnet

// Tests for the fused route plans' 64-lane SWAR engine, the fusion
// itself (fused program ≡ the unfused per-level tag/strip/rebase walk),
// and the compiled Beneš replay — the differentials ISSUE 5 pins.

import (
	"math/rand"
	"testing"

	"absort/internal/concentrator"
	"absort/internal/planner"
	"absort/internal/race"
)

// TestRoutePackedDifferential checks the packed permuter against dest⁻¹
// on every engine, across widths and the lane counts
// {1, 2, 7, 24, 63, 64}: each lane's permutation must be the inverse of
// that lane's assignment.
func TestRoutePackedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for _, cfg := range planEngines {
		for _, n := range []int{2, 4, 16, 64, 128} {
			if cfg.k > n {
				continue
			}
			rp := NewRadixPermuter(n, cfg.engine, cfg.k)
			plan := rp.Compile()
			for _, lanes := range []int{1, 2, 7, 24, 63, 64} {
				dests := make([][]int, lanes)
				out := make([][]int, lanes)
				for l := range dests {
					dests[l] = rng.Perm(n)
					out[l] = make([]int, n)
				}
				if err := plan.RoutePacked(out, dests); err != nil {
					t.Fatalf("%s n=%d lanes=%d: %v", cfg.name, n, lanes, err)
				}
				for l, dest := range dests {
					if want := inverse(dest); !permEqual(out[l], want) {
						t.Fatalf("%s n=%d lanes=%d lane %d dest=%v:\npacked %v\ndest⁻¹ %v",
							cfg.name, n, lanes, l, dest, out[l], want)
					}
				}
			}
		}
	}
}

// TestRoutePackedExhaustive routes every permutation at n ∈ {2, 4, 8}
// through the packed engine, 64 lanes at a time, against dest⁻¹ — the
// packed twin of TestPlannedExhaustiveSmall.
func TestRoutePackedExhaustive(t *testing.T) {
	for _, cfg := range planEngines {
		if cfg.k > 2 {
			continue
		}
		for _, n := range []int{2, 4, 8} {
			if cfg.k > n {
				continue
			}
			rp := NewRadixPermuter(n, cfg.engine, cfg.k)
			plan := rp.Compile()
			var all [][]int
			dest := make([]int, n)
			var rec func(used uint, depth int)
			rec = func(used uint, depth int) {
				if depth == n {
					all = append(all, append([]int(nil), dest...))
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
			for lo := 0; lo < len(all); lo += PackedLanes {
				hi := min(lo+PackedLanes, len(all))
				batch := all[lo:hi]
				out := make([][]int, len(batch))
				for l := range out {
					out[l] = make([]int, n)
				}
				if err := plan.RoutePacked(out, batch); err != nil {
					t.Fatalf("%s n=%d: %v", cfg.name, n, err)
				}
				for l, d := range batch {
					if want := inverse(d); !permEqual(out[l], want) {
						t.Fatalf("%s n=%d dest=%v: packed %v, dest⁻¹ %v",
							cfg.name, n, d, out[l], want)
					}
				}
			}
		}
	}
}

// TestRouteBatchPackedPath routes batches wide enough to take the packed
// fast path through the RouteBatch front door — including a ragged final
// lane group and a remainder narrower than MinPackedLanes — and checks
// them against the planned pipeline. Run under -race this also exercises
// the packed path's worker-pool memory visibility.
func TestRouteBatchPackedPath(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	n := 64
	for _, cfg := range planEngines {
		rp := NewRadixPermuter(n, cfg.engine, cfg.k)
		plan := rp.Compile()
		for _, batchLen := range []int{PackedLanes, PackedLanes + MinPackedLanes - 1, 3*PackedLanes + 40, 257} {
			dests := make([][]int, batchLen)
			for i := range dests {
				dests[i] = rng.Perm(n)
			}
			for _, workers := range []int{1, 4, 0} {
				got, err := plan.RouteBatch(dests, workers)
				if err != nil {
					t.Fatalf("%s len=%d workers=%d: %v", cfg.name, batchLen, workers, err)
				}
				want, err := plan.RouteBatchPlanned(dests, workers)
				if err != nil {
					t.Fatal(err)
				}
				for i := range dests {
					if !permEqual(got[i], want[i]) {
						t.Fatalf("%s len=%d workers=%d request %d: packed %v != planned %v",
							cfg.name, batchLen, workers, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestRoutePackedErrors walks the packed entry point's validated
// failures: they must return errors — never panic — and a poisoned wide
// batch must name the earliest offending request like the planned path.
func TestRoutePackedErrors(t *testing.T) {
	n := 8
	plan := NewRadixPermuter(n, concentrator.MuxMerger, 0).Compile()
	good := make([][]int, 1)
	good[0] = make([]int, n)

	if err := plan.RoutePacked(nil, nil); err == nil {
		t.Error("RoutePacked accepted 0 assignments")
	}
	if err := plan.RoutePacked(make([][]int, PackedLanes+1), make([][]int, PackedLanes+1)); err == nil {
		t.Error("RoutePacked accepted more than PackedLanes assignments")
	}
	if err := plan.RoutePacked(good, [][]int{{0, 1, 2}}); err == nil {
		t.Error("RoutePacked accepted a short assignment")
	}
	if err := plan.RoutePacked(good, [][]int{{0, 0, 1, 2, 3, 4, 5, 6}}); err == nil {
		t.Error("RoutePacked accepted a non-permutation")
	}
	if err := plan.RoutePacked([][]int{make([]int, n-1)}, [][]int{{0, 1, 2, 3, 4, 5, 6, 7}}); err == nil {
		t.Error("RoutePacked accepted a short output")
	}
	// Poisoned wide batch through the front door: earliest index named.
	dests := make([][]int, 2*PackedLanes)
	for i := range dests {
		dests[i] = rand.New(rand.NewSource(int64(i))).Perm(n)
	}
	dests[70] = []int{0, 0, 1, 2, 3, 4, 5, 6}
	if _, err := plan.RouteBatch(dests, 2); err == nil {
		t.Error("RouteBatch accepted a poisoned wide batch")
	}
}

// TestRoutePackedAllocFree pins the packed permuter's zero steady-state
// heap allocation guarantee.
func TestRoutePackedAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation pin skipped under the race detector: sync.Pool drops a fraction of Puts when instrumented")
	}
	rng := rand.New(rand.NewSource(52))
	n := 256
	plan := NewRadixPermuter(n, concentrator.Fish, 0).Compile()
	dests := make([][]int, PackedLanes)
	out := make([][]int, PackedLanes)
	for l := range dests {
		dests[l] = rng.Perm(n)
		out[l] = make([]int, n)
	}
	if err := plan.RoutePacked(out, dests); err != nil { // warm the pool
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(30, func() {
		if err := plan.RoutePacked(out, dests); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("RoutePacked allocates %.1f per run, want 0", avg)
	}
}

// TestFusedMatchesUnfusedLevels pins the fusion itself: the fused
// whole-network program must route bit-for-bit identically to the
// UNFUSED reference walk — per-level concentrator plans with explicit
// tag / strip / rebase passes between levels, exactly the pipeline the
// fused plans replaced.
func TestFusedMatchesUnfusedLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, cfg := range planEngines {
		for _, n := range []int{4, 16, 64, 256} {
			if cfg.k > n {
				continue
			}
			rp := NewRadixPermuter(n, cfg.engine, cfg.k)
			plan := rp.Compile()
			for trial := 0; trial < 10; trial++ {
				dest := rng.Perm(n)
				want := unfusedRoute(n, cfg.engine, cfg.k, dest)
				got, err := plan.Route(dest)
				if err != nil {
					t.Fatal(err)
				}
				if !permEqual(got, want) {
					t.Fatalf("%s n=%d dest=%v: fused %v, unfused %v",
						cfg.name, n, dest, got, want)
				}
			}
		}
	}
}

// unfusedRoute is the pre-fusion planned pipeline, kept as the test
// reference: per-level concentrator plans over windows, with an explicit
// tagging pass before each window route and a strip/rebase pass after —
// the three passes OpSetTag fused away.
func unfusedRoute(n int, engine concentrator.Engine, k int, dest []int) []int {
	const tagBit = concentrator.TagBit
	val := make([]uint64, n)
	for i, d := range dest {
		val[i] = uint64(d)<<localShift | uint64(i)
	}
	for s := n; s >= 2; s /= 2 {
		var lv *concentrator.Plan
		switch engine {
		case concentrator.Fish:
			if s == 2 {
				lv = concentrator.PlanFor(s, concentrator.MuxMerger, 0)
			} else {
				kk := k
				if s < n || kk <= 0 {
					kk = planner.DefaultFishK(s)
				}
				lv = concentrator.PlanFor(s, concentrator.Fish, kk)
			}
		default:
			lv = concentrator.PlanFor(s, engine, 0)
		}
		h := s / 2
		hh := uint64(h) << localShift
		for lo := 0; lo < n; lo += s {
			win := val[lo : lo+s]
			for j, v := range win {
				if v&^idxMask >= hh {
					win[j] = v | tagBit
				}
			}
			lv.Program().Run(win)
			for j := 0; j < h; j++ {
				win[h+j] = (win[h+j] &^ tagBit) - hh
			}
		}
	}
	out := make([]int, n)
	for j, v := range val {
		out[j] = int(v & idxMask)
	}
	return out
}

// TestBenesPlanDifferential checks the compiled Beneš replay against
// ApplyBenes over the looping algorithm's configuration, and that the
// result delivers per VerifyRouting.
func TestBenesPlanDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for _, n := range []int{2, 4, 8, 16, 64, 256} {
		bp, err := CompileBenes(n)
		if err != nil {
			t.Fatal(err)
		}
		if got := bp.NumSwitches(); got != BenesCost(n) {
			t.Fatalf("n=%d: NumSwitches = %d, want BenesCost = %d", n, got, BenesCost(n))
		}
		for trial := 0; trial < 10; trial++ {
			dest := rng.Perm(n)
			got, err := bp.Route(dest)
			if err != nil {
				t.Fatal(err)
			}
			cfg, _, err := RouteBenes(dest)
			if err != nil {
				t.Fatal(err)
			}
			in := make([]int, n)
			for i := range in {
				in[i] = i
			}
			applied := ApplyBenes(cfg, in)
			inv := make([]int, n)
			for j, x := range applied {
				inv[j] = x
			}
			if !permEqual(got, inv) {
				t.Fatalf("n=%d dest=%v: plan %v, ApplyBenes %v", n, dest, got, inv)
			}
			if !VerifyRouting(dest, got) {
				t.Fatalf("n=%d dest=%v: Beneš plan route does not deliver", n, dest)
			}
		}
	}
}

// TestBenesPlanExhaustive routes every permutation at n ∈ {2, 4, 8}
// through the compiled replay and checks delivery.
func TestBenesPlanExhaustive(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		bp, err := CompileBenes(n)
		if err != nil {
			t.Fatal(err)
		}
		dest := make([]int, n)
		var rec func(used uint, depth int)
		rec = func(used uint, depth int) {
			if depth == n {
				p, err := bp.Route(dest)
				if err != nil {
					t.Fatal(err)
				}
				if !VerifyRouting(dest, p) {
					t.Fatalf("n=%d dest=%v: route %v does not deliver", n, dest, p)
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

// TestBenesPlanErrors checks the compiled replay's validated failures
// and batch fail-fast.
func TestBenesPlanErrors(t *testing.T) {
	if _, err := CompileBenes(3); err == nil {
		t.Error("CompileBenes accepted width 3")
	}
	if _, err := CompileBenes(1); err == nil {
		t.Error("CompileBenes accepted width 1")
	}
	bp, err := CompileBenes(8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bp.Route([]int{0, 1, 2}); err == nil {
		t.Error("Route accepted wrong width")
	}
	if _, err := bp.Route([]int{0, 0, 1, 2, 3, 4, 5, 6}); err == nil {
		t.Error("Route accepted a non-permutation")
	}
	good := []int{1, 0, 3, 2, 5, 4, 7, 6}
	bad := []int{0, 0, 1, 2, 3, 4, 5, 6}
	if _, err := bp.RouteBatch([][]int{good, bad}, 2); err == nil {
		t.Error("RouteBatch accepted a batch containing a non-permutation")
	}
	if out, err := bp.RouteBatch(nil, 2); out != nil || err != nil {
		t.Error("RouteBatch(nil) != (nil, nil)")
	}
}

// TestBenesPlanBatch checks batched Beneš replay against per-request
// routing across worker counts.
func TestBenesPlanBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	n := 64
	bp, err := CompileBenes(n)
	if err != nil {
		t.Fatal(err)
	}
	dests := make([][]int, 40)
	for i := range dests {
		dests[i] = rng.Perm(n)
	}
	for _, workers := range []int{1, 3, 0} {
		got, err := bp.RouteBatch(dests, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i, dest := range dests {
			want, err := bp.Route(dest)
			if err != nil {
				t.Fatal(err)
			}
			if !permEqual(got[i], want) {
				t.Fatalf("workers=%d request %d: batch %v != single %v", workers, i, got[i], want)
			}
		}
	}
}

// FuzzRoutePackedPerm fuzzes the packed permuter against dest⁻¹: the
// fuzzer picks a width, an engine, a lane count, and a permutation seed.
func FuzzRoutePackedPerm(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(0), uint8(17))
	f.Add(int64(2), uint8(5), uint8(2), uint8(64))
	f.Add(int64(3), uint8(3), uint8(1), uint8(1))
	f.Add(int64(4), uint8(6), uint8(3), uint8(33))
	f.Fuzz(func(t *testing.T, seed int64, lgn, engSel, lanes8 uint8) {
		n := 1 << (1 + lgn%6) // n ∈ {2, 4, ..., 64}
		cfg := planEngines[int(engSel)%len(planEngines)]
		if cfg.k > n {
			t.Skip()
		}
		lanes := int(lanes8%PackedLanes) + 1
		rp := NewRadixPermuter(n, cfg.engine, cfg.k)
		plan := rp.Compile()
		rng := rand.New(rand.NewSource(seed))
		dests := make([][]int, lanes)
		out := make([][]int, lanes)
		for l := range dests {
			dests[l] = rng.Perm(n)
			out[l] = make([]int, n)
		}
		if err := plan.RoutePacked(out, dests); err != nil {
			t.Fatal(err)
		}
		for l, dest := range dests {
			if want := inverse(dest); !permEqual(out[l], want) {
				t.Fatalf("%s n=%d lane %d dest=%v: packed %v, dest⁻¹ %v",
					cfg.name, n, l, dest, out[l], want)
			}
		}
	})
}
