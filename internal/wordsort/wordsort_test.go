package wordsort

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"absort/internal/bitvec"
	"absort/internal/concentrator"
	"absort/internal/permnet"
	"absort/internal/planner"
	"absort/internal/race"
)

// TestSortRandom sorts random keys across widths and engines and checks
// against the standard library.
func TestSortRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(167))
	for _, eng := range []Engine{concentrator.MuxMerger, concentrator.Fish} {
		for _, tc := range []struct{ n, w int }{{16, 4}, {64, 8}, {256, 12}, {64, 1}} {
			s, err := New(tc.n, tc.w, eng)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 20; trial++ {
				keys := make([]uint64, tc.n)
				for i := range keys {
					keys[i] = uint64(rng.Intn(1 << uint(tc.w)))
				}
				got, perm, err := s.Sort(keys)
				if err != nil {
					t.Fatal(err)
				}
				want := append([]uint64(nil), keys...)
				sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("eng=%v n=%d w=%d: got %v want %v", eng, tc.n, tc.w, got, want)
					}
					if keys[perm[i]] != got[i] {
						t.Fatalf("perm inconsistent at %d", i)
					}
				}
			}
		}
	}
}

// TestSortStable verifies stability: equal keys keep input order, checked
// by sorting (key, index) records.
func TestSortStable(t *testing.T) {
	rng := rand.New(rand.NewSource(173))
	s, err := New(64, 3, concentrator.MuxMerger) // only 8 distinct keys: many ties
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 30; trial++ {
		keys := make([]uint64, 64)
		for i := range keys {
			keys[i] = uint64(rng.Intn(8))
		}
		_, perm, err := s.Sort(keys)
		if err != nil {
			t.Fatal(err)
		}
		for j := 1; j < len(perm); j++ {
			a, b := keys[perm[j-1]], keys[perm[j]]
			if a > b {
				t.Fatalf("not sorted at %d", j)
			}
			if a == b && perm[j-1] > perm[j] {
				t.Fatalf("not stable: key %d, indices %d then %d", a, perm[j-1], perm[j])
			}
		}
	}
}

// TestSortExhaustiveTinyKeys sorts every 2-bit key assignment on 8 lines.
func TestSortExhaustiveTinyKeys(t *testing.T) {
	s, err := New(8, 2, concentrator.Fish)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, 8)
	var rec func(i int)
	rec = func(i int) {
		if t.Failed() {
			return
		}
		if i == 8 {
			got, _, err := s.Sort(keys)
			if err != nil {
				t.Fatal(err)
			}
			for j := 1; j < 8; j++ {
				if got[j-1] > got[j] {
					t.Fatalf("unsorted on %v: %v", keys, got)
				}
			}
			return
		}
		for v := uint64(0); v < 4; v++ {
			keys[i] = v
			rec(i + 1)
		}
	}
	rec(0)
}

// TestSortBy sorts records by key and checks payload integrity.
func TestSortBy(t *testing.T) {
	type rec struct {
		key  uint64
		name string
	}
	s, err := New(8, 4, concentrator.MuxMerger)
	if err != nil {
		t.Fatal(err)
	}
	items := []rec{
		{9, "i"}, {3, "c"}, {7, "g"}, {3, "c2"},
		{1, "a"}, {15, "p"}, {0, "z"}, {7, "g2"},
	}
	out, err := SortBy(s, items, func(r rec) uint64 { return r.key })
	if err != nil {
		t.Fatal(err)
	}
	wantNames := []string{"z", "a", "c", "c2", "g", "g2", "i", "p"}
	for i, w := range wantNames {
		if out[i].name != w {
			t.Fatalf("SortBy order = %v", out)
		}
	}
}

// TestSortProperty via testing/quick: output sorted, same multiset.
func TestSortProperty(t *testing.T) {
	s, err := New(32, 8, concentrator.Fish)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		keys := make([]uint64, 32)
		counts := map[uint64]int{}
		for i := range keys {
			keys[i] = uint64(rng.Intn(256))
			counts[keys[i]]++
		}
		got, _, err := s.Sort(keys)
		if err != nil {
			return false
		}
		for j := 1; j < len(got); j++ {
			if got[j-1] > got[j] {
				return false
			}
		}
		for _, k := range got {
			counts[k]--
		}
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(12, 4, concentrator.MuxMerger); err == nil {
		t.Error("accepted non-power-of-two n")
	}
	if _, err := New(16, 0, concentrator.MuxMerger); err == nil {
		t.Error("accepted zero key width")
	}
	if _, err := New(16, 65, concentrator.MuxMerger); err == nil {
		t.Error("accepted key width > 64")
	}
	s, _ := New(16, 4, concentrator.MuxMerger)
	if _, _, err := s.Sort(make([]uint64, 8)); err == nil {
		t.Error("accepted wrong key count")
	}
	if _, err := SortBy(s, []int{1, 2}, func(int) uint64 { return 0 }); err == nil {
		t.Error("SortBy accepted wrong item count")
	}
	if s.N() != 16 || s.W() != 4 || s.Passes() != 4 {
		t.Error("accessors")
	}
	if s.CostModel(1000) != 4*(160+1000) {
		t.Errorf("CostModel = %d", s.CostModel(1000))
	}
}

// TestSortBatchDifferential checks SortBatch against per-set Sort across
// worker counts: identical keys and permutations, input order preserved.
func TestSortBatchDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	for _, eng := range []Engine{concentrator.MuxMerger, concentrator.Fish} {
		s, err := New(64, 6, eng)
		if err != nil {
			t.Fatal(err)
		}
		sets := make([][]uint64, 40)
		for i := range sets {
			sets[i] = make([]uint64, 64)
			for j := range sets[i] {
				sets[i][j] = uint64(rng.Intn(64))
			}
		}
		for _, workers := range []int{1, 4, 0} {
			keys, perms, err := s.SortBatch(sets, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i, set := range sets {
				wantK, wantP, err := s.Sort(set)
				if err != nil {
					t.Fatal(err)
				}
				for j := range wantK {
					if keys[i][j] != wantK[j] || perms[i][j] != wantP[j] {
						t.Fatalf("eng=%v workers=%d set %d: batch (%v,%v) != single (%v,%v)",
							eng, workers, i, keys[i], perms[i], wantK, wantP)
					}
				}
			}
		}
	}
}

// TestSortIntoAllocFree pins the planned pipeline property: steady-state
// SortInto performs zero heap allocations across all w radix passes.
func TestSortIntoAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation pin skipped under the race detector: sync.Pool drops a fraction of Puts when instrumented")
	}
	rng := rand.New(rand.NewSource(402))
	s, err := New(128, 8, concentrator.Fish)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, 128)
	for i := range keys {
		keys[i] = uint64(rng.Intn(256))
	}
	out := make([]uint64, 128)
	perm := make([]int, 128)
	if err := s.SortInto(out, perm, keys); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(50, func() {
		if err := s.SortInto(out, perm, keys); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("SortInto allocates %.1f per run, want 0", avg)
	}
}

// TestSortBatchWideDifferential drives batches wide enough to take the
// pass-synchronized packed pipeline — including a ragged final lane
// group and a remainder below the packed threshold — and checks every
// set against per-set Sort.
func TestSortBatchWideDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for _, eng := range []Engine{concentrator.MuxMerger, concentrator.Fish} {
		s, err := New(32, 5, eng)
		if err != nil {
			t.Fatal(err)
		}
		for _, batchLen := range []int{64, 64 + 23, 150} {
			sets := make([][]uint64, batchLen)
			for i := range sets {
				sets[i] = make([]uint64, 32)
				for j := range sets[i] {
					sets[i][j] = uint64(rng.Intn(32))
				}
			}
			for _, workers := range []int{1, 4, 0} {
				keys, perms, err := s.SortBatch(sets, workers)
				if err != nil {
					t.Fatal(err)
				}
				for i, set := range sets {
					wantK, wantP, err := s.Sort(set)
					if err != nil {
						t.Fatal(err)
					}
					for j := range wantK {
						if keys[i][j] != wantK[j] || perms[i][j] != wantP[j] {
							t.Fatalf("eng=%v len=%d workers=%d set %d: batch (%v,%v) != single (%v,%v)",
								eng, batchLen, workers, i, keys[i], perms[i], wantK, wantP)
						}
					}
				}
			}
		}
	}
}

// TestSortBatchWideAllocsPerPass pins the wide pipeline's allocation
// discipline: working buffers are allocated once per batch, so the
// allocation count must not scale with the key width w (the number of
// radix passes).
func TestSortBatchWideAllocsPerPass(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation pin skipped under the race detector: sync.Pool drops a fraction of Puts when instrumented")
	}
	rng := rand.New(rand.NewSource(405))
	sets := make([][]uint64, 64)
	for i := range sets {
		sets[i] = make([]uint64, 64)
		for j := range sets[i] {
			sets[i][j] = uint64(rng.Intn(64))
		}
	}
	allocs := func(w int) float64 {
		s, err := New(64, w, concentrator.Fish)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.SortBatch(sets, 1); err != nil { // warm the pools
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if _, _, err := s.SortBatch(sets, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	a1, a16 := allocs(1), allocs(16)
	if a16 > a1+4 {
		t.Errorf("wide batch allocations scale with w: %.1f at w=1, %.1f at w=16", a1, a16)
	}
}

// TestSortBatchValidation checks batch-path error handling.
func TestSortBatchValidation(t *testing.T) {
	s, err := New(16, 4, concentrator.MuxMerger)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.SortBatch([][]uint64{make([]uint64, 8)}, 2); err == nil {
		t.Error("SortBatch accepted a wrong-width key set")
	}
	if keys, perms, err := s.SortBatch(nil, 2); keys != nil || perms != nil || err != nil {
		t.Error("SortBatch(nil) != (nil, nil, nil)")
	}
	if err := s.SortInto(make([]uint64, 8), make([]int, 16), make([]uint64, 16)); err == nil {
		t.Error("SortInto accepted short output buffer")
	}
}

// TestStableSplitDestInto checks the in-place ranking step against its
// allocating counterpart.
func TestStableSplitDestInto(t *testing.T) {
	rng := rand.New(rand.NewSource(403))
	for trial := 0; trial < 20; trial++ {
		tags := make(bitvec.Vector, 32)
		for i := range tags {
			tags[i] = bitvec.Bit(rng.Intn(2))
		}
		want := stableSplitDest(tags)
		got := make([]int, len(tags))
		stableSplitDestInto(got, tags)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: Into %v != alloc %v", trial, got, want)
			}
		}
	}
}

// TestSortShardedCutover checks a sorter at n = ShardedAutoThreshold
// routes every pass through the shared default-shard plan
// ShardedPlanFor(n, e, 0): Sort and SortBatch return the stable sort,
// batches never pack whole key sets on the flat program, and no flat
// KindPermuter plan at that width lands in planner.Shared.
func TestSortShardedCutover(t *testing.T) {
	n, e := permnet.ShardedAutoThreshold, concentrator.Fish
	s, err := New(n, 2, e)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := permnet.ShardedPlanFor(n, e, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s.plan.(*permnet.ShardedRoutePlan); !ok || got != sp {
		t.Fatalf("sorter plan is %T, want ShardedPlanFor(n, e, 0)", s.plan)
	}
	if prog, err := (&batchSets{s: s}).Packed(); prog != nil || err != nil {
		t.Fatalf("a sharded sorter's batch offers a packed flat program (%v, %v)", prog, err)
	}
	rng := rand.New(rand.NewSource(16))
	sets := make([][]uint64, 2)
	for i := range sets {
		sets[i] = make([]uint64, n)
		for j := range sets[i] {
			sets[i][j] = uint64(rng.Intn(4))
		}
	}
	keys, perms, err := s.SortBatch(sets, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, set := range sets {
		wantP := make([]int, n)
		for j := range wantP {
			wantP[j] = j
		}
		sort.SliceStable(wantP, func(a, b int) bool { return set[wantP[a]] < set[wantP[b]] })
		gotK, gotP, err := s.Sort(set)
		if err != nil {
			t.Fatal(err)
		}
		for j, src := range wantP {
			if gotP[j] != src || perms[i][j] != src || gotK[j] != set[src] || keys[i][j] != set[src] {
				t.Fatalf("set %d position %d: Sort (%d, %d), SortBatch (%d, %d), want the stable sort's (%d, %d)",
					i, j, gotK[j], gotP[j], keys[i][j], perms[i][j], set[src], src)
			}
		}
	}
	key := planner.PlanKey{Kind: planner.KindPermuter, N: n, Engine: int8(e)}
	if _, ok := planner.Shared.Get(key); ok {
		t.Errorf("flat KindPermuter plan at n=%d landed in planner.Shared", n)
	}
}
