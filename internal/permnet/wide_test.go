package permnet

// Tests for packed calls of 1..64 lanes and for batches many lane words
// wide, through both the fused radix plans and the compiled Beneš
// replay, plus the zero-allocation steady-state pins of a full lane
// word.

import (
	"math/rand"
	"testing"

	"absort/internal/concentrator"
	"absort/internal/planner"
	"absort/internal/race"
)

// wideLaneCounts spans one packed call: a single lane, a ragged word
// below and at the batch remainder threshold (MinPackedLanes), one lane
// short of a word, and a full word.
var wideLaneCounts = []int{1, 7, MinPackedLanes, 63, PackedLanes}

// wideBatch is the batch-path request count of the wide differentials:
// sixteen lane words, one packed replay each.
const wideBatch = 1024

// wideEngine is one engine configuration of the wide differential.
type wideEngine struct {
	name   string
	engine concentrator.Engine
	k      int
}

// wideEngines lists planEngines plus every other registered engine that
// can route an n-wide radix permuter, whose windows run down to width 2.
func wideEngines(n int) []wideEngine {
	var es []wideEngine
	seen := map[concentrator.Engine]bool{}
	for _, cfg := range planEngines {
		seen[cfg.engine] = true
		if cfg.k <= n {
			es = append(es, wideEngine{cfg.name, cfg.engine, cfg.k})
		}
	}
	for _, e := range planner.EnginesFor(n) {
		if !seen[e] && planner.CanRoute(e, 2) {
			es = append(es, wideEngine{e.String(), e, 0})
		}
	}
	return es
}

// TestRouteWideDifferential checks the packed permuter against dest⁻¹
// on every registered engine, in RoutePacked calls of 1..64 lanes and in
// a 1024-request RouteBatch: each lane's permutation must be the inverse
// of that lane's assignment.
func TestRouteWideDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for _, n := range []int{16, 64} {
		for _, cfg := range wideEngines(n) {
			rp := NewRadixPermuter(n, cfg.engine, cfg.k)
			plan := rp.Compile()
			for _, lanes := range wideLaneCounts {
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
			dests := make([][]int, wideBatch)
			for i := range dests {
				dests[i] = rng.Perm(n)
			}
			got, err := plan.RouteBatch(dests, 2)
			if err != nil {
				t.Fatalf("%s n=%d batch: %v", cfg.name, n, err)
			}
			for i, dest := range dests {
				if want := inverse(dest); !permEqual(got[i], want) {
					t.Fatalf("%s n=%d batch request %d: packed %v, dest⁻¹ %v",
						cfg.name, n, i, got[i], want)
				}
			}
		}
	}
}

// TestBenesPackedDifferential checks the packed Beneš replay — looping
// and select-mask flattening fused into routeBenesBits — against the
// per-request RouteInto in calls of 1..64 lanes and in a 1024-request
// RouteBatch.
func TestBenesPackedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, n := range []int{2, 16, 64} {
		bp, err := CompileBenes(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, lanes := range wideLaneCounts {
			dests := make([][]int, lanes)
			out := make([][]int, lanes)
			for l := range dests {
				dests[l] = rng.Perm(n)
				out[l] = make([]int, n)
			}
			if err := bp.RoutePacked(out, dests); err != nil {
				t.Fatalf("n=%d lanes=%d: %v", n, lanes, err)
			}
			want := make([]int, n)
			for l, dest := range dests {
				if err := bp.RouteInto(want, dest); err != nil {
					t.Fatal(err)
				}
				if !permEqual(out[l], want) {
					t.Fatalf("n=%d lanes=%d lane %d dest=%v:\npacked %v\nplanned %v",
						n, lanes, l, dest, out[l], want)
				}
			}
		}
		dests := make([][]int, wideBatch)
		for i := range dests {
			dests[i] = rng.Perm(n)
		}
		got, err := bp.RouteBatch(dests, 2)
		if err != nil {
			t.Fatalf("n=%d batch: %v", n, err)
		}
		want := make([]int, n)
		for i, dest := range dests {
			if err := bp.RouteInto(want, dest); err != nil {
				t.Fatal(err)
			}
			if !permEqual(got[i], want) {
				t.Fatalf("n=%d batch request %d: packed %v, planned %v", n, i, got[i], want)
			}
		}
	}
}

// TestRoutePackedWidths routes one batch in RoutePacked calls of 1, 7,
// 24, 63 and 64 lanes (the last call of each width ragged) through both
// the fused radix plan and the Beneš replay: every width must route
// bit-for-bit identically to the planned pipeline.
func TestRoutePackedWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	n := 32
	rp := NewRadixPermuter(n, concentrator.Fish, 0)
	plan := rp.Compile()
	bp, err := CompileBenes(n)
	if err != nil {
		t.Fatal(err)
	}
	batch := 1100 // ragged at every width above 1: 1100 = 17×64 + 12
	dests := make([][]int, batch)
	for i := range dests {
		dests[i] = rng.Perm(n)
	}
	want, err := plan.RouteBatchPlanned(dests, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantBenes, err := bp.RouteBatchPlanned(dests, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range wideLaneCounts {
		got := planner.Rows[int](batch, n)
		gotBenes := planner.Rows[int](batch, n)
		for lo := 0; lo < batch; lo += width {
			hi := min(lo+width, batch)
			if err := plan.RoutePacked(got[lo:hi], dests[lo:hi]); err != nil {
				t.Fatalf("width %d: %v", width, err)
			}
			if err := bp.RoutePacked(gotBenes[lo:hi], dests[lo:hi]); err != nil {
				t.Fatalf("benes width %d: %v", width, err)
			}
		}
		for i := range dests {
			if !permEqual(got[i], want[i]) {
				t.Fatalf("width %d request %d: packed %v, planned %v", width, i, got[i], want[i])
			}
			if !permEqual(gotBenes[i], wantBenes[i]) {
				t.Fatalf("benes width %d request %d: packed %v, planned %v",
					width, i, gotBenes[i], wantBenes[i])
			}
		}
	}
}

// TestBenesPackedErrors walks the validated failures of the packed Beneš
// entry point: lane-count bounds, length mismatches, and non-permutation
// assignments must return errors naming the offending request — never
// panic.
func TestBenesPackedErrors(t *testing.T) {
	n := 8
	bp, err := CompileBenes(n)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(lanes int) ([][]int, [][]int) {
		dests := make([][]int, lanes)
		out := make([][]int, lanes)
		for l := range dests {
			dests[l] = make([]int, n)
			for j := range dests[l] {
				dests[l][j] = j
			}
			out[l] = make([]int, n)
		}
		return out, dests
	}
	if err := bp.RoutePacked(nil, nil); err == nil {
		t.Error("RoutePacked accepted zero assignments")
	}
	if out, dests := mk(PackedLanes + 1); bp.RoutePacked(out, dests) == nil {
		t.Error("RoutePacked accepted more than PackedLanes assignments")
	}
	out, dests := mk(2)
	if err := bp.RoutePacked(out[:1], dests); err == nil {
		t.Error("RoutePacked accepted mismatched output count")
	}
	dests[1] = dests[1][:n-1]
	if err := bp.RoutePacked(out, dests); err == nil {
		t.Error("RoutePacked accepted a short assignment")
	}
	out, dests = mk(2)
	dests[1][0] = 1 // duplicate destination: not a permutation
	if err := bp.RoutePacked(out, dests); err == nil {
		t.Error("RoutePacked accepted a non-permutation assignment")
	}
}

// TestWidePackedAllocFree pins the zero steady-state heap allocation
// guarantee for a full lane word: a 64-lane packed route must not
// allocate once the scratch pools are warm, on both the fused radix plan
// and the Beneš replay.
func TestWidePackedAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation pin skipped under the race detector: sync.Pool drops a fraction of Puts when instrumented")
	}
	rng := rand.New(rand.NewSource(63))
	n := 256
	lanes := PackedLanes
	plan := NewRadixPermuter(n, concentrator.Fish, 0).Compile()
	bp, err := CompileBenes(n)
	if err != nil {
		t.Fatal(err)
	}
	dests := make([][]int, lanes)
	out := make([][]int, lanes)
	for l := range dests {
		dests[l] = rng.Perm(n)
		out[l] = make([]int, n)
	}
	if err := plan.RoutePacked(out, dests); err != nil { // warm the pool
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(20, func() {
		if err := plan.RoutePacked(out, dests); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("wide RoutePacked allocates %.1f per run, want 0", avg)
	}
	if err := bp.RoutePacked(out, dests); err != nil { // warm the pool
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(20, func() {
		if err := bp.RoutePacked(out, dests); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("wide Beneš RoutePacked allocates %.1f per run, want 0", avg)
	}
}
