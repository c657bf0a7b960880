package concentrator

import (
	"math/rand"
	"strings"
	"testing"

	"absort/internal/bitvec"
	"absort/internal/core"
	"absort/internal/planner"
	"absort/internal/race"
)

// The bit-block transpose convention the packed extractor depends on is
// pinned by TestTranspose64 in internal/planner, next to the shared
// packed runner the transpose now lives in.

// markedOf is the request pattern that routes like tags through an
// (n,n) concentrator: an unmarked input carries tag 1, so marked = !tag.
// With capacity n every tag pattern is a valid request.
func markedOf(tags bitvec.Vector) []bool {
	marked := make([]bool, len(tags))
	for i, t := range tags {
		marked[i] = t == 0
	}
	return marked
}

// packedRoutes routes the tag patterns as one ConcentratePacked call on
// an (n,n) concentrator over the plan's configuration and returns the
// realized permutations.
func packedRoutes(t *testing.T, engine Engine, n, k int, batch []bitvec.Vector) [][]int {
	t.Helper()
	c := New(n, n, engine, k)
	marked := make([][]bool, len(batch))
	for l, tags := range batch {
		marked[l] = markedOf(tags)
	}
	perms, counts := makeBatchResults(len(batch), n)
	if err := c.ConcentratePacked(perms, counts, marked); err != nil {
		t.Fatalf("%v n=%d k=%d lanes=%d: %v", engine, n, k, len(batch), err)
	}
	return perms
}

// makeBatchResults allocates batch permutation rows and request counts.
func makeBatchResults(batch, n int) ([][]int, []int) {
	return planner.Rows[int](batch, n), make([]int, batch)
}

// TestRoutePackedDifferential checks the SWAR engine against the scalar
// plan on every engine, across widths and lane counts up to one word
// (ragged words included): each lane's permutation must be
// bit-for-bit identical to the scalar route of that lane's tags.
func TestRoutePackedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	lanesSweep := []int{1, 2, 7, 24, 63, 64}
	for _, cfg := range planConfigs(64) {
		p := NewPlan(cfg.n, cfg.engine, cfg.k)
		for _, lanes := range lanesSweep {
			batch := make([]bitvec.Vector, lanes)
			for l := range batch {
				batch[l] = bitvec.Random(rng, cfg.n)
			}
			out := packedRoutes(t, cfg.engine, cfg.n, cfg.k, batch)
			for l, tags := range batch {
				want := mustRoute(t, p, tags)
				if !equalPerm(out[l], want) {
					t.Fatalf("%v n=%d k=%d lanes=%d lane %d tags=%v:\npacked %v\nscalar %v",
						cfg.engine, cfg.n, cfg.k, lanes, l, tags, out[l], want)
				}
			}
		}
	}
}

// TestRoutePackedExhaustive runs every tag pattern at small widths packed
// 64 at a time against the scalar routers — the packed twin of
// TestPlanExhaustiveDifferential.
func TestRoutePackedExhaustive(t *testing.T) {
	for _, cfg := range planConfigs(8) {
		total := uint64(1) << cfg.n
		for lo := uint64(0); lo < total; lo += PackedLanes {
			lanes := int(min(PackedLanes, total-lo))
			batch := make([]bitvec.Vector, lanes)
			for l := range batch {
				batch[l] = bitvec.FromUint(lo+uint64(l), cfg.n)
			}
			out := packedRoutes(t, cfg.engine, cfg.n, cfg.k, batch)
			for l, tags := range batch {
				want := scalarRoute(cfg.engine, cfg.k, tags)
				if !equalPerm(out[l], want) {
					t.Fatalf("%v n=%d k=%d tags=%v: packed %v, scalar %v",
						cfg.engine, cfg.n, cfg.k, tags, out[l], want)
				}
			}
		}
	}
}

// TestRoutePackedLarge extends the differential to widths where the
// extractor's 64-wide transpose chunks and the fish engine's deep merge
// trees are fully exercised.
func TestRoutePackedLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, cfg := range []struct {
		n      int
		engine Engine
		k      int
	}{
		{256, MuxMerger, 0}, {256, PrefixAdder, 0}, {256, Ranking, 0},
		{256, Fish, 2}, {256, Fish, 8}, {256, Fish, 128},
		{1024, Fish, 8}, {1024, PrefixAdder, 0},
	} {
		p := NewPlan(cfg.n, cfg.engine, cfg.k)
		batch := make([]bitvec.Vector, PackedLanes)
		for l := range batch {
			batch[l] = bitvec.Random(rng, cfg.n)
		}
		out := packedRoutes(t, cfg.engine, cfg.n, cfg.k, batch)
		for l, tv := range batch {
			want := mustRoute(t, p, tv)
			if !equalPerm(out[l], want) {
				t.Fatalf("%v n=%d k=%d lane %d: packed != scalar", cfg.engine, cfg.n, cfg.k, l)
			}
		}
	}
}

// TestConcentratePackedMatchesScalar checks the packed concentrator front
// door — permutations and request counts — against per-pattern
// ConcentrateInto, including patterns at exactly capacity.
func TestConcentratePackedMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, engine := range []Engine{MuxMerger, PrefixAdder, Fish, Ranking} {
		n := 128
		c := New(n, n/2, engine, 4)
		for _, lanes := range []int{1, 24, 64} {
			batch := make([][]bool, lanes)
			for l := range batch {
				marked := make([]bool, n)
				r := rng.Intn(n/2 + 1)
				for _, i := range rng.Perm(n)[:r] {
					marked[i] = true
				}
				batch[l] = marked
			}
			perms, counts := makeBatchResults(lanes, n)
			if err := c.ConcentratePacked(perms, counts, batch); err != nil {
				t.Fatalf("%v lanes=%d: %v", engine, lanes, err)
			}
			wantP := make([]int, n)
			for l, marked := range batch {
				wantR, err := c.ConcentrateInto(wantP, marked)
				if err != nil {
					t.Fatal(err)
				}
				if counts[l] != wantR || !equalPerm(perms[l], wantP) {
					t.Fatalf("%v lanes=%d lane %d: packed (%v, %d) != scalar (%v, %d)",
						engine, lanes, l, perms[l], counts[l], wantP, wantR)
				}
			}
		}
	}
}

// TestConcentrateBatchPackedPath routes a batch wide enough to take the
// packed fast path through the ConcentrateBatch front door — including a
// ragged final lane group and a remainder narrower than MinPackedLanes —
// and checks it against the planned pipeline. Run under -race this also
// exercises the packed path's worker-pool memory visibility.
func TestConcentrateBatchPackedPath(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	n := 64
	for _, engine := range []Engine{MuxMerger, PrefixAdder, Fish} {
		c := New(n, n, engine, 4)
		for _, batchLen := range []int{PackedLanes, PackedLanes + MinPackedLanes - 1, 3*PackedLanes + 40, 257} {
			batch := make([][]bool, batchLen)
			for i := range batch {
				marked := make([]bool, n)
				for j := range marked {
					marked[j] = rng.Intn(2) == 0
				}
				batch[i] = marked
			}
			for _, workers := range []int{1, 4, 0} {
				gotP, gotR, err := c.ConcentrateBatch(batch, workers)
				if err != nil {
					t.Fatalf("%v len=%d workers=%d: %v", engine, batchLen, workers, err)
				}
				wantP, wantR, err := c.ConcentrateBatchPlanned(batch, workers)
				if err != nil {
					t.Fatal(err)
				}
				for i := range batch {
					if gotR[i] != wantR[i] || !equalPerm(gotP[i], wantP[i]) {
						t.Fatalf("%v len=%d workers=%d pattern %d: packed (%v, %d) != planned (%v, %d)",
							engine, batchLen, workers, i, gotP[i], gotR[i], wantP[i], wantR[i])
					}
				}
			}
		}
	}
}

// TestConcentrateBatchRankingStaysPlanned pins that the Ranking engine
// never auto-switches: its single stable partition gains nothing from
// lane packing, and opRank's per-lane gather would be slower.
func TestConcentrateBatchRankingStaysPlanned(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	n := 32
	c := New(n, n, Ranking, 0)
	batch := make([][]bool, 2*PackedLanes)
	for i := range batch {
		marked := make([]bool, n)
		for j := range marked {
			marked[j] = rng.Intn(2) == 0
		}
		batch[i] = marked
	}
	gotP, gotR, err := c.ConcentrateBatch(batch, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantP := make([]int, n)
	for i, marked := range batch {
		wantR, err := c.ConcentrateInto(wantP, marked)
		if err != nil {
			t.Fatal(err)
		}
		if gotR[i] != wantR || !equalPerm(gotP[i], wantP) {
			t.Fatalf("pattern %d: batch (%v, %d) != scalar (%v, %d)",
				i, gotP[i], gotR[i], wantP, wantR)
		}
	}
}

// TestPackedErrors walks every validated failure of the packed entry
// point: it must return errors — never panic — with the same messages
// the planned batch pipeline reports.
func TestPackedErrors(t *testing.T) {
	n := 16
	c := New(n, 2, MuxMerger, 0)
	perms, counts := makeBatchResults(1, n)
	if err := c.ConcentratePacked(perms, counts, nil); err == nil {
		t.Error("ConcentratePacked accepted 0 patterns")
	}
	if err := c.ConcentratePacked(make([][]int, PackedLanes+1), make([]int, PackedLanes+1),
		make([][]bool, PackedLanes+1)); err == nil {
		t.Error("ConcentratePacked accepted more than PackedLanes patterns")
	}
	if err := c.ConcentratePacked(perms, counts[:0], [][]bool{make([]bool, n)}); err == nil {
		t.Error("ConcentratePacked accepted a short counts slice")
	}
	if err := c.ConcentratePacked([][]int{make([]int, n-1)}, counts, [][]bool{make([]bool, n)}); err == nil ||
		err.Error() != "concentrator: batch pattern 0: concentrator: permutation buffer of 15 for 16 inputs" {
		t.Errorf("ConcentratePacked short-output error = %v", err)
	}
	if err := c.ConcentratePacked(perms, counts, [][]bool{make([]bool, n-1)}); err == nil ||
		err.Error() != "concentrator: batch pattern 0: concentrator: 15 requests for 16 inputs" {
		t.Errorf("ConcentratePacked wrong-width error = %v", err)
	}
	over := make([]bool, n)
	for i := range over {
		over[i] = true
	}
	if err := c.ConcentratePacked(perms, counts, [][]bool{over}); err == nil ||
		err.Error() != "concentrator: batch pattern 0: concentrator: 16 requests exceed capacity 2" {
		t.Errorf("ConcentratePacked over-capacity error = %v", err)
	}
	// The batch front door reports the packed path's failures with the
	// global pattern index, identically to the planned path.
	batch := make([][]bool, PackedLanes)
	for i := range batch {
		batch[i] = make([]bool, n)
	}
	batch[70%len(batch)] = over
	if _, _, err := c.ConcentrateBatch(batch, 2); err == nil ||
		!strings.Contains(err.Error(), "pattern 6:") {
		t.Errorf("ConcentrateBatch packed-path error = %v", err)
	}
}

// TestConcentrateBatchRemainderErrorIndex pins the index of an error
// raised in the per-pattern remainder of a packed batch: 74 patterns
// split into one packed 64-lane group and a 10-pattern remainder, and
// the over-capacity pattern 70 in that remainder must be named exactly
// as the planned pipeline names it.
func TestConcentrateBatchRemainderErrorIndex(t *testing.T) {
	n := 16
	c := New(n, 4, Fish, 0)
	batch := make([][]bool, 74)
	for i := range batch {
		batch[i] = make([]bool, n)
	}
	for i := 0; i < 8; i++ {
		batch[70][i] = true
	}
	const want = "concentrator: batch pattern 70: concentrator: 8 requests exceed capacity 4"
	for _, workers := range []int{1, 2} {
		if _, _, err := c.ConcentrateBatchPlanned(batch, workers); err == nil || err.Error() != want {
			t.Errorf("workers=%d: ConcentrateBatchPlanned error = %v, want %q", workers, err, want)
		}
		if _, _, err := c.ConcentrateBatch(batch, workers); err == nil || err.Error() != want {
			t.Errorf("workers=%d: ConcentrateBatch error = %v, want %q", workers, err, want)
		}
	}
}

// TestPackedAllocFree pins the packed engine's zero steady-state heap
// allocation guarantee.
func TestPackedAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation pin skipped under the race detector: sync.Pool drops a fraction of Puts when instrumented")
	}
	rng := rand.New(rand.NewSource(46))
	n := 256
	c := New(n, n, Fish, 4)
	marked := make([][]bool, PackedLanes)
	for l := range marked {
		marked[l] = markedOf(bitvec.Random(rng, n))
	}
	perms, counts := makeBatchResults(PackedLanes, n)
	if err := c.ConcentratePacked(perms, counts, marked); err != nil { // warm the pool
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(50, func() {
		if err := c.ConcentratePacked(perms, counts, marked); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("ConcentratePacked allocates %.1f per run, want 0", avg)
	}
}

// FuzzRoutePacked drives random engine/width/lane configurations through
// ConcentratePacked and cross-checks every lane against the scalar plan.
func FuzzRoutePacked(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(3), uint8(17))
	f.Add(int64(2), uint8(1), uint8(5), uint8(63))
	f.Add(int64(3), uint8(2), uint8(6), uint8(1))
	f.Add(int64(4), uint8(3), uint8(4), uint8(33))
	f.Fuzz(func(t *testing.T, seed int64, eng, lgN, lanes8 uint8) {
		engine := Engine(eng % 4)
		n := 1 << (lgN % 9) // 1..256
		lanes := int(lanes8)%PackedLanes + 1
		k := 0
		if engine == Fish && n > 1 {
			rngK := rand.New(rand.NewSource(seed))
			k = 2 << rngK.Intn(core.Lg(n))
			if k > n {
				k = n
			}
		}
		rng := rand.New(rand.NewSource(seed))
		p := NewPlan(n, engine, k)
		batch := make([]bitvec.Vector, lanes)
		for l := range batch {
			batch[l] = bitvec.Random(rng, n)
		}
		out := packedRoutes(t, engine, n, k, batch)
		for l, tags := range batch {
			want := mustRoute(t, p, tags)
			if !equalPerm(out[l], want) {
				t.Fatalf("%v n=%d k=%d lane %d tags=%v: packed %v, scalar %v",
					engine, n, k, l, tags, out[l], want)
			}
		}
	})
}
