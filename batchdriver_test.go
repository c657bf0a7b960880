package absort_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"absort/internal/concentrator"
	"absort/internal/permnet"
	"absort/internal/planner"
	"absort/internal/wordsort"
)

// driverBatchLens straddles every threshold of the batch driver's
// packing decision: the 24-request remainder rule, the 64-request entry
// rule, one request past a group, and a ragged multi-group batch.
var driverBatchLens = []int{0, 1, 23, 24, 63, 64, 65, 87, 88, 257}

// TestBatchDriverMatchesPerRequest runs every batch entry point on the
// planner's batch driver — the radix, Beneš and sharded route plans, the
// concentrator and the word sorter — over every engine that can back it,
// at the driver's boundary batch lengths with 1 and 4 workers, and checks
// each result bit-for-bit against the per-request path.
func TestBatchDriverMatchesPerRequest(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(14))
	maxLen := driverBatchLens[len(driverBatchLens)-1]
	dests := make([][]int, maxLen)
	marked := make([][]bool, maxLen)
	keys := make([][]uint64, maxLen)
	for i := range dests {
		dests[i] = rng.Perm(n)
		marked[i] = make([]bool, n)
		keys[i] = make([]uint64, n)
		for j := range marked[i] {
			marked[i][j] = rng.Intn(2) == 0
			keys[i][j] = uint64(rng.Intn(16))
		}
	}
	check := func(name string, batch func(b, workers int) (any, error), one func(i int) (any, error)) {
		t.Helper()
		for _, b := range driverBatchLens {
			want := make([]any, b)
			for i := range want {
				r, err := one(i)
				if err != nil {
					t.Fatalf("%s request %d: %v", name, i, err)
				}
				want[i] = r
			}
			for _, workers := range []int{1, 4} {
				got, err := batch(b, workers)
				if err != nil {
					t.Fatalf("%s len=%d workers=%d: %v", name, b, workers, err)
				}
				if !reflect.DeepEqual(rows(got), want) {
					t.Fatalf("%s len=%d workers=%d: batch differs from per-request results", name, b, workers)
				}
			}
		}
	}
	bp, err := permnet.CompileBenes(n)
	if err != nil {
		t.Fatal(err)
	}
	check("benes", func(b, w int) (any, error) { return bp.RouteBatch(dests[:b], w) },
		func(i int) (any, error) { return bp.Route(dests[i]) })
	for _, e := range planner.Engines() {
		if planner.CanRoute(e, n) {
			c := concentrator.New(n, n, e, 0)
			check(fmt.Sprintf("concentrate/%v", e), func(b, w int) (any, error) {
				perms, counts, err := c.ConcentrateBatch(marked[:b], w)
				return pairs(perms, counts), err
			}, func(i int) (any, error) {
				p, r, err := c.Concentrate(marked[i])
				return fmt.Sprint(p, r), err
			})
		}
		if !planner.CanRoute(e, n) || !planner.CanRoute(e, 2) {
			continue // the permuter's levels need every width n, n/2, …, 2
		}
		plan := permnet.NewRadixPermuter(n, e, 0).Compile()
		check(fmt.Sprintf("permute/%v", e), func(b, w int) (any, error) { return plan.RouteBatch(dests[:b], w) },
			func(i int) (any, error) { return plan.Route(dests[i]) })
		for _, shards := range []int{4, 32} { // per-request and packed sub-replay
			sp, err := permnet.ShardedPlanFor(n, e, shards)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("sharded/%v/w=%d", e, shards), func(b, w int) (any, error) { return sp.RouteBatch(dests[:b], w) },
				func(i int) (any, error) { return plan.Route(dests[i]) })
		}
		s, err := wordsort.New(n, 4, e)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("wordsort/%v", e), func(b, w int) (any, error) {
			ks, ps, err := s.SortBatch(keys[:b], w)
			return pairs(ks, ps), err
		}, func(i int) (any, error) {
			k, p, err := s.Sort(keys[i])
			return fmt.Sprint(k, p), err
		})
	}
}

// rows flattens a batch result into one value per request.
func rows(v any) []any {
	switch r := v.(type) {
	case [][]int:
		out := make([]any, len(r))
		for i := range r {
			out[i] = r[i]
		}
		return out
	case []any:
		return r
	}
	panic(fmt.Sprintf("rows: %T", v))
}

// pairs zips two per-request result slices into one printed value per
// request.
func pairs[A, B any](a []A, b []B) []any {
	out := make([]any, len(a))
	for i := range a {
		out[i] = fmt.Sprint(a[i], b[i])
	}
	return out
}
