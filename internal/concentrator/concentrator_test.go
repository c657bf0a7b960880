package concentrator

import (
	"math/rand"
	"testing"
	"testing/quick"

	"absort/internal/bitvec"
	"absort/internal/core"
	"absort/internal/prefixadd"
)

func isPerm(p []int) bool {
	seen := make([]bool, len(p))
	for _, x := range p {
		if x < 0 || x >= len(p) || seen[x] {
			return false
		}
		seen[x] = true
	}
	return true
}

// checkRoute verifies that a routing permutation sorts the tags: applying
// p to tags yields sorted tags, i.e. all 0-tagged (marked) packets land on
// the leading outputs.
func checkRoute(t *testing.T, name string, tags bitvec.Vector, p []int) {
	t.Helper()
	if !isPerm(p) {
		t.Fatalf("%s: %v is not a permutation (tags %s)", name, p, tags)
	}
	out := make(bitvec.Vector, len(tags))
	for j, i := range p {
		out[j] = tags[i]
	}
	if !out.IsSorted() {
		t.Fatalf("%s: tags %s routed to %s (perm %v)", name, tags, out, p)
	}
}

// TestRoutersExhaustive checks every engine on every tag pattern at n=8
// and n=16.
func TestRoutersExhaustive(t *testing.T) {
	for _, n := range []int{8, 16} {
		bitvec.All(n, func(tags bitvec.Vector) bool {
			checkRoute(t, "mux-merger", tags, RouteMuxMerger(tags))
			checkRoute(t, "prefix", tags, RoutePrefix(tags))
			checkRoute(t, "fish-k2", tags, RouteFish(tags, 2))
			checkRoute(t, "fish-k4", tags, RouteFish(tags, 4))
			checkRoute(t, "ranking", tags, RouteRanking(tags))
			return !t.Failed()
		})
		if t.Failed() {
			return
		}
	}
}

// TestRoutersMatchBitSorters cross-validates every engine against the
// actual bit-level sorters in internal/core: applying the returned
// permutation to the tag vector must equal the sorter's output exactly.
func TestRoutersMatchBitSorters(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	n := 64
	mm := core.NewMuxMergerSorter(n)
	pf := core.NewPrefixSorter(n, prefixadd.Prefix)
	fish := core.NewFishSorter(n, 8)
	for i := 0; i < 200; i++ {
		tags := bitvec.Random(rng, n)
		apply := func(p []int) bitvec.Vector {
			out := make(bitvec.Vector, n)
			for j, x := range p {
				out[j] = tags[x]
			}
			return out
		}
		if got, want := apply(RouteMuxMerger(tags)), mm.Sort(tags); !got.Equal(want) {
			t.Fatalf("mux-merger route disagrees with sorter on %s", tags)
		}
		if got, want := apply(RoutePrefix(tags)), pf.Sort(tags); !got.Equal(want) {
			t.Fatalf("prefix route disagrees with sorter on %s", tags)
		}
		if got, want := apply(RouteFish(tags, 8)), fish.Sort(tags); !got.Equal(want) {
			t.Fatalf("fish route disagrees with sorter on %s", tags)
		}
	}
}

// TestRankingStable verifies the baseline preserves arrival order among
// marked and unmarked packets (the property the sorter-based routes do not
// guarantee).
func TestRankingStable(t *testing.T) {
	tags := bitvec.MustFromString("10010110")
	p := RouteRanking(tags)
	want := []int{1, 2, 4, 7, 0, 3, 5, 6}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("ranking perm = %v, want %v", p, want)
		}
	}
}

// TestConcentratorPlan checks the full (n,m) API: payload routing, request
// counting, and capacity enforcement.
func TestConcentratorPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, engine := range []Engine{MuxMerger, PrefixAdder, Fish, Ranking} {
		c := New(32, 16, engine, 4)
		for trial := 0; trial < 100; trial++ {
			marked := make([]bool, 32)
			r := 0
			for i := range marked {
				if rng.Intn(3) == 0 && r < 16 {
					marked[i] = true
					r++
				}
			}
			p, got, err := c.Concentrate(marked)
			if err != nil {
				t.Fatalf("%v: unexpected error %v", engine, err)
			}
			if got != r {
				t.Fatalf("%v: r = %d, want %d", engine, got, r)
			}
			// The first r outputs must be exactly the marked inputs.
			seen := map[int]bool{}
			for j := 0; j < r; j++ {
				if !marked[p[j]] {
					t.Fatalf("%v: output %d fed from unmarked input %d", engine, j, p[j])
				}
				seen[p[j]] = true
			}
			if len(seen) != r {
				t.Fatalf("%v: duplicated input in outputs", engine)
			}
		}
	}
}

// TestConcentratorOverCapacity pins the texts of the capacity and
// request-width errors.
func TestConcentratorOverCapacity(t *testing.T) {
	c := New(8, 2, MuxMerger, 0)
	marked := []bool{true, true, true, false, false, false, false, false}
	for _, tc := range []struct {
		marked []bool
		want   string
	}{
		{marked, "concentrator: 3 requests exceed capacity 2"},
		{make([]bool, 4), "concentrator: 4 requests for 8 inputs"},
	} {
		if _, _, err := c.Concentrate(tc.marked); err == nil || err.Error() != tc.want {
			t.Errorf("Concentrate error %v, want %q", err, tc.want)
		}
	}
}

// TestConcentratorProperty: random engine-agnostic invariant via
// testing/quick.
func TestConcentratorProperty(t *testing.T) {
	f := func(x uint16) bool {
		tags := bitvec.FromUint(uint64(x), 16)
		for _, p := range [][]int{
			RouteMuxMerger(tags), RoutePrefix(tags), RouteFish(tags, 4),
		} {
			if !isPerm(p) {
				return false
			}
			out := make(bitvec.Vector, 16)
			for j, i := range p {
				out[j] = tags[i]
			}
			if !out.IsSorted() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAccessors covers the small accessors and Engine.String.
func TestAccessors(t *testing.T) {
	c := New(16, 8, Fish, 4)
	if c.N() != 16 || c.M() != 8 || c.Engine() != Fish {
		t.Error("accessor mismatch")
	}
	names := map[Engine]string{
		MuxMerger: "mux-merger", PrefixAdder: "prefix-adder",
		Fish: "fish", Ranking: "ranking",
	}
	for e, want := range names {
		if e.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(e), e, want)
		}
	}
	if Engine(9).String() == "" {
		t.Error("unknown engine name empty")
	}
}

func TestPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("RouteMuxMerger", func() { RouteMuxMerger(bitvec.New(6)) })
	mustPanic("RoutePrefix", func() { RoutePrefix(bitvec.New(6)) })
	mustPanic("RouteFish", func() { RouteFish(bitvec.New(8), 3) })
	mustPanic("New", func() { New(12, 4, MuxMerger, 0) })
	mustPanic("New m", func() { New(16, 0, MuxMerger, 0) })
}
