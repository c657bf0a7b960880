package permnet

// Differential coverage for the sharded route plans (ISSUE 7): sharded
// vs flat bit-for-bit across engines and shard counts (both the scalar
// composition below the packed break-even and the lane-packed sub-replay
// above it), exhaustive small-n sweeps at w ∈ {2, 4}, batch/group
// boundary and error paths, a fuzzer over (n, w, engine, assignment),
// and the 1M-input smoke route that never compiles a flat plan.

import (
	"math/rand"
	"strings"
	"testing"

	"absort/internal/concentrator"
	"absort/internal/planner"
	"absort/internal/race"
)

// TestRouteShardedDifferential checks the sharded plan against the flat
// fused plan on every engine at n ∈ {256, 1024, 4096}, across shard
// counts on both sides of the packed break-even (w ∈ {2, 8} routes the
// scalar composition, w ∈ {32, 64, 128} the lane-packed sub-replay, at
// w = 128 over two lane words per request): every routed permutation
// must be bit-for-bit identical.
func TestRouteShardedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	for _, cfg := range planEngines {
		for _, n := range []int{256, 1024, 4096} {
			if testing.Short() && n > 1024 {
				continue
			}
			rp := NewRadixPermuter(n, cfg.engine, cfg.k)
			flat := rp.Compile()
			for _, w := range []int{2, 8, 32, 64, 128} {
				sp, err := rp.Sharded(w)
				if err != nil {
					t.Fatalf("%s n=%d w=%d: %v", cfg.name, n, w, err)
				}
				if sp.Packed() != (w >= MinPackedLanes) {
					t.Fatalf("%s n=%d w=%d: Packed() = %v", cfg.name, n, w, sp.Packed())
				}
				for trial := 0; trial < 3; trial++ {
					dest := rng.Perm(n)
					want := make([]int, n)
					if err := flat.RouteInto(want, dest); err != nil {
						t.Fatal(err)
					}
					got := make([]int, n)
					if err := sp.RouteInto(got, dest); err != nil {
						t.Fatalf("%s n=%d w=%d: %v", cfg.name, n, w, err)
					}
					if !permEqual(got, want) {
						t.Fatalf("%s n=%d w=%d packed=%v: sharded route differs from flat",
							cfg.name, n, w, sp.Packed())
					}
					if !VerifyRouting(dest, got) {
						t.Fatalf("%s n=%d w=%d: sharded route does not deliver", cfg.name, n, w)
					}
				}
			}
		}
	}
}

// TestRouteShardedExhaustive routes every permutation at n ∈ {4, 8}
// with w ∈ {2, 4} through the sharded plan against the flat plan.
func TestRouteShardedExhaustive(t *testing.T) {
	for _, cfg := range planEngines {
		if cfg.k > 2 {
			continue
		}
		for _, n := range []int{4, 8} {
			rp := NewRadixPermuter(n, cfg.engine, cfg.k)
			flat := rp.Compile()
			for _, w := range []int{2, 4} {
				if w > n/2 {
					continue
				}
				sp, err := rp.Sharded(w)
				if err != nil {
					t.Fatalf("%s n=%d w=%d: %v", cfg.name, n, w, err)
				}
				dest := make([]int, n)
				got := make([]int, n)
				want := make([]int, n)
				var rec func(used uint, depth int)
				rec = func(used uint, depth int) {
					if depth == n {
						if err := flat.RouteInto(want, dest); err != nil {
							t.Fatal(err)
						}
						if err := sp.RouteInto(got, dest); err != nil {
							t.Fatalf("%s n=%d w=%d dest=%v: %v", cfg.name, n, w, dest, err)
						}
						if !permEqual(got, want) || !VerifyRouting(dest, got) {
							t.Fatalf("%s n=%d w=%d dest=%v:\nsharded %v\nflat    %v",
								cfg.name, n, w, dest, got, want)
						}
						return
					}
					for v := 0; v < n; v++ {
						if used&(1<<v) == 0 {
							dest[depth] = v
							rec(used|1<<v, depth+1)
						}
					}
				}
				rec(0, 0)
			}
		}
	}
}

// TestShardedRouteBatch checks the batch pipeline across group
// boundaries (batch sizes around and beyond one packed group) against
// the flat planned batch, and the fail-fast error contract.
func TestShardedRouteBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	n, w := 1024, 64
	rp := NewRadixPermuter(n, concentrator.MuxMerger, 0)
	flat := rp.Compile()
	sp, err := rp.Sharded(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 3, sp.gbMax, sp.gbMax + 1, 2*sp.gbMax + 3} {
		dests := make([][]int, batch)
		for i := range dests {
			dests[i] = rng.Perm(n)
		}
		want, err := flat.RouteBatchPlanned(dests, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sp.RouteBatch(dests, 0)
		if err != nil {
			t.Fatalf("batch=%d: %v", batch, err)
		}
		for i := range dests {
			if !permEqual(got[i], want[i]) {
				t.Fatalf("batch=%d request %d: sharded differs from flat", batch, i)
			}
		}
	}

	// Fail fast on a malformed request, naming its index.
	dests := make([][]int, 5)
	for i := range dests {
		dests[i] = rng.Perm(n)
	}
	dests[3][0] = dests[3][1] // duplicate destination: not a permutation
	if _, err := sp.RouteBatch(dests, 0); err == nil {
		t.Fatal("sharded batch accepted a non-permutation")
	} else if !strings.Contains(err.Error(), "request 3") {
		t.Fatalf("error does not name the offending request: %v", err)
	}
	if out, err := sp.RouteBatch(nil, 0); err != nil || out != nil {
		t.Fatalf("empty batch: got %v, %v", out, err)
	}
}

// TestShardedPlanValidation pins the constructor and route boundaries.
func TestShardedPlanValidation(t *testing.T) {
	if _, err := ShardedPlanFor(1000, concentrator.MuxMerger, 2); err == nil {
		t.Fatal("accepted non-power-of-two n")
	}
	if _, err := ShardedPlanFor(2, concentrator.MuxMerger, 2); err == nil {
		t.Fatal("accepted n=2")
	}
	for _, w := range []int{1, 3, 128} { // 128 > n/2 at n=64
		if _, err := ShardedPlanFor(64, concentrator.MuxMerger, w); err == nil {
			t.Fatalf("accepted shard count %d at n=64", w)
		}
	}
	sp, err := ShardedPlanFor(64, concentrator.MuxMerger, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Shards() != DefaultShards(64) {
		t.Fatalf("default shards: got %d, want %d", sp.Shards(), DefaultShards(64))
	}
	dest := make([]int, 64)
	for i := range dest {
		dest[i] = i
	}
	out := make([]int, 64)
	if err := sp.RouteInto(out[:10], dest); err == nil {
		t.Fatal("accepted short output")
	}
	if err := sp.RouteInto(out, dest[:10]); err == nil {
		t.Fatal("accepted short assignment")
	}
	dest[0] = 99
	if err := sp.RouteInto(out, dest); err == nil {
		t.Fatal("accepted out-of-range destination")
	}
}

// TestShardedPlanSharing pins the cache contract: one plan per
// (n, engine, w), one cross program per (n, w) across engines, and the
// sub-program resolved through the ordinary flat entry at n/w.
func TestShardedPlanSharing(t *testing.T) {
	a, err := ShardedPlanFor(256, concentrator.MuxMerger, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ShardedPlanFor(256, concentrator.MuxMerger, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same (n, engine, w) built two sharded plans")
	}
	c, err := ShardedPlanFor(256, concentrator.PrefixAdder, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("different engines share one sharded plan")
	}
	if a.Program().Cross() != c.Program().Cross() {
		t.Fatal("same (n, w) built two cross programs across engines")
	}
	if a.SubPlan() != planFor(256/8, concentrator.MuxMerger, 0) {
		t.Fatal("sub-program not shared with the flat plan at n/w")
	}
	if sp := a.Program(); sp.N() != 256 || sp.Shards() != 8 || sp.Sub().N() != 32 {
		t.Fatalf("sharded program shape: n=%d w=%d sub=%d", sp.N(), sp.Shards(), sp.Sub().N())
	}
}

// TestShardedHugeN smoke-routes n = 1M through 64 shards — a width
// whose flat fused program (Θ(n lg n) steps) is never compiled — and
// verifies delivery. Skipped in -short and under the race detector.
func TestShardedHugeN(t *testing.T) {
	if testing.Short() || race.Enabled {
		t.Skip("1M-input smoke route: skipping in -short / race mode")
	}
	n := 1 << 20
	sp, err := ShardedPlanFor(n, concentrator.MuxMerger, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Shards() != 64 || sp.ShardWidth() != n/64 {
		t.Fatalf("default decomposition: w=%d m=%d", sp.Shards(), sp.ShardWidth())
	}
	dest := rand.New(rand.NewSource(72)).Perm(n)
	out, err := sp.Route(dest)
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyRouting(dest, out) {
		t.Fatal("1M-input sharded route does not deliver")
	}
}

// FuzzRouteSharded drives the sharded plan against the flat plan over
// fuzzed (n, w, engine, assignment) tuples.
func FuzzRouteSharded(f *testing.F) {
	f.Add(uint8(3), uint8(1), uint8(0), int64(1))
	f.Add(uint8(5), uint8(2), uint8(2), int64(2))
	f.Add(uint8(6), uint8(5), uint8(3), int64(3))
	f.Add(uint8(8), uint8(6), uint8(1), int64(4))
	f.Fuzz(func(t *testing.T, nExp, wExp, eng uint8, seed int64) {
		n := 4 << (int(nExp) % 7) // 4 .. 256
		w := 2 << (int(wExp) % 6) // 2 .. 64
		if w > n/2 {
			w = n / 2
		}
		engines := []concentrator.Engine{
			concentrator.MuxMerger, concentrator.PrefixAdder,
			concentrator.Fish, concentrator.Ranking,
		}
		engine := engines[int(eng)%len(engines)]
		rp := NewRadixPermuter(n, engine, 0)
		sp, err := rp.Sharded(w)
		if err != nil {
			t.Fatalf("n=%d w=%d: %v", n, w, err)
		}
		dest := rand.New(rand.NewSource(seed)).Perm(n)
		want := make([]int, n)
		if err := rp.Compile().RouteInto(want, dest); err != nil {
			t.Fatal(err)
		}
		got := make([]int, n)
		if err := sp.RouteInto(got, dest); err != nil {
			t.Fatal(err)
		}
		if !permEqual(got, want) {
			t.Fatalf("n=%d w=%d engine=%v: sharded route differs from flat", n, w, engine)
		}
		if !permEqual(got, inverse(dest)) {
			t.Fatalf("n=%d w=%d engine=%v: sharded route is not dest⁻¹", n, w, engine)
		}
	})
}

// TestShardedProgramBounds pins the planner-level composition's
// validation.
func TestShardedProgramBounds(t *testing.T) {
	sp, err := ShardedPlanFor(64, concentrator.MuxMerger, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := planner.NewShardedProgram(sp.Program().Cross(), sp.Program().Sub(), 8); err == nil {
		t.Fatal("accepted mismatched shard count")
	}
	if _, err := planner.NewShardedProgram(nil, sp.Program().Sub(), 4); err == nil {
		t.Fatal("accepted nil cross program")
	}
}
