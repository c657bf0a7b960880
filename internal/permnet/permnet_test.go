package permnet

import (
	"math/rand"
	"testing"
	"testing/quick"

	"absort/internal/bitvec"
	"absort/internal/cmpnet"
	"absort/internal/concentrator"
	"absort/internal/core"
	"absort/internal/planner"
)

func randPerm(rng *rand.Rand, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	rng.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

func allPerms(n int, fn func([]int)) {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			fn(p)
			return
		}
		for i := k; i < n; i++ {
			p[k], p[i] = p[i], p[k]
			rec(k + 1)
			p[k], p[i] = p[i], p[k]
		}
	}
	rec(0)
}

// realizes checks that routing `in` through the realized permutation sends
// input i to output dest[i].
func realizes(t *testing.T, name string, dest, p []int) {
	t.Helper()
	if !VerifyRouting(dest, p) {
		t.Fatalf("%s: dest %v not realized by %v", name, dest, p)
	}
}

// TestBenesExhaustiveSmall routes every permutation of 4 and some of 8
// through the Beneš network and verifies delivery.
func TestBenesExhaustiveSmall(t *testing.T) {
	for _, n := range []int{2, 4} {
		allPerms(n, func(dest []int) {
			cfg, steps, err := RouteBenes(dest)
			if err != nil {
				t.Fatalf("n=%d dest=%v: %v", n, dest, err)
			}
			if steps <= 0 {
				t.Fatalf("n=%d: nonpositive looping steps", n)
			}
			in := make([]int, n)
			for i := range in {
				in[i] = i
			}
			out := ApplyBenes(cfg, in)
			for i := range in {
				if out[dest[i]] != i {
					t.Fatalf("n=%d dest=%v: input %d arrived at wrong output (%v)",
						n, dest, i, out)
				}
			}
		})
	}
	allPerms(8, func(dest []int) {
		// Sample 1 in 71 of the 40320 permutations to keep runtime sane.
		if (dest[0]*7+dest[1]*5+dest[2])%71 != 0 {
			return
		}
		cfg, _, err := RouteBenes(dest)
		if err != nil {
			t.Fatalf("dest=%v: %v", dest, err)
		}
		in := []int{0, 1, 2, 3, 4, 5, 6, 7}
		out := ApplyBenes(cfg, in)
		for i := range in {
			if out[dest[i]] != i {
				t.Fatalf("dest=%v: misrouted (%v)", dest, out)
			}
		}
	})
}

// TestBenesRandomWide routes random permutations at larger sizes.
func TestBenesRandomWide(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for _, n := range []int{16, 64, 256, 1024} {
		for trial := 0; trial < 20; trial++ {
			dest := randPerm(rng, n)
			cfg, _, err := RouteBenes(dest)
			if err != nil {
				t.Fatal(err)
			}
			in := make([]int, n)
			for i := range in {
				in[i] = i
			}
			out := ApplyBenes(cfg, in)
			for i := range in {
				if out[dest[i]] != i {
					t.Fatalf("n=%d: misrouted", n)
				}
			}
		}
	}
}

// TestBenesCost checks the classical figures: (n/2)(2 lg n − 1) switches,
// 2 lg n − 1 stages.
func TestBenesCost(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	for _, n := range []int{2, 4, 16, 64} {
		dest := randPerm(rng, n)
		cfg, _, err := RouteBenes(dest)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := cfg.NumSwitches(), BenesCost(n); got != want {
			t.Errorf("n=%d: %d switches, want %d", n, got, want)
		}
		lg := core.Lg(n)
		if got := BenesDepth(n); got != 2*lg-1 {
			t.Errorf("n=%d: depth %d", n, got)
		}
	}
}

// TestBenesRejectsBadInput covers validation paths.
func TestBenesRejectsBadInput(t *testing.T) {
	if _, _, err := RouteBenes([]int{0, 0, 1, 2}); err == nil {
		t.Error("accepted non-permutation")
	}
	if _, _, err := RouteBenes([]int{0, 1, 2}); err == nil {
		t.Error("accepted non-power-of-two width")
	}
	cfg, _, _ := RouteBenes([]int{1, 0})
	defer func() {
		if recover() == nil {
			t.Error("ApplyBenes arity mismatch did not panic")
		}
	}()
	ApplyBenes(cfg, []int{1, 2, 3})
}

// TestRadixPermuterExhaustiveSmall checks E11 on every permutation of 4
// and 8 lines for each engine.
func TestRadixPermuterExhaustiveSmall(t *testing.T) {
	engines := []concentrator.Engine{
		concentrator.MuxMerger, concentrator.PrefixAdder,
		concentrator.Fish, concentrator.Ranking,
	}
	for _, eng := range engines {
		for _, n := range []int{2, 4, 8} {
			r := NewRadixPermuter(n, eng, 0)
			allPerms(n, func(dest []int) {
				p, err := r.Route(dest)
				if err != nil {
					t.Fatalf("%v n=%d dest=%v: %v", eng, n, dest, err)
				}
				realizes(t, eng.String(), dest, p)
			})
		}
	}
}

// TestRadixPermuterRandomWide stresses larger widths, including the fish
// engine with the paper's k = lg n.
func TestRadixPermuterRandomWide(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	for _, tc := range []struct {
		eng concentrator.Engine
		n   int
		k   int
	}{
		{concentrator.MuxMerger, 256, 0},
		{concentrator.PrefixAdder, 128, 0},
		{concentrator.Fish, 256, 8},
		{concentrator.Fish, 1024, 8},
		{concentrator.MuxMerger, 1024, 0},
	} {
		r := NewRadixPermuter(tc.n, tc.eng, tc.k)
		for trial := 0; trial < 15; trial++ {
			dest := randPerm(rng, tc.n)
			p, err := r.Route(dest)
			if err != nil {
				t.Fatal(err)
			}
			realizes(t, tc.eng.String(), dest, p)
		}
	}
}

// TestRadixPermuterAdversarial routes structured permutations: identity,
// reversal, bit-reversal, perfect shuffle, and single transpositions.
func TestRadixPermuterAdversarial(t *testing.T) {
	n := 64
	lg := core.Lg(n)
	perms := map[string][]int{}
	id := make([]int, n)
	rev := make([]int, n)
	bitrev := make([]int, n)
	shuf := make([]int, n)
	for i := 0; i < n; i++ {
		id[i] = i
		rev[i] = n - 1 - i
		br := 0
		for b := 0; b < lg; b++ {
			if i&(1<<uint(b)) != 0 {
				br |= 1 << uint(lg-1-b)
			}
		}
		bitrev[i] = br
		shuf[i] = (i*2)%n + (i*2)/n
	}
	trans := make([]int, n)
	copy(trans, id)
	trans[3], trans[59] = trans[59], trans[3]
	perms["identity"] = id
	perms["reversal"] = rev
	perms["bit-reversal"] = bitrev
	perms["shuffle"] = shuf
	perms["transposition"] = trans
	for name, dest := range perms {
		for _, eng := range []concentrator.Engine{concentrator.MuxMerger, concentrator.Fish} {
			r := NewRadixPermuter(n, eng, 0)
			p, err := r.Route(dest)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, eng, err)
			}
			realizes(t, name, dest, p)
		}
	}
}

// TestRouteBatcher checks the word-level Batcher baseline.
func TestRouteBatcher(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	for _, n := range []int{4, 16, 128} {
		for trial := 0; trial < 20; trial++ {
			dest := randPerm(rng, n)
			p, err := RouteBatcher(dest)
			if err != nil {
				t.Fatal(err)
			}
			realizes(t, "batcher", dest, p)
		}
	}
	if _, err := RouteBatcher([]int{0, 2, 1}); err == nil {
		t.Error("accepted non-power-of-two width")
	}
	if _, err := RouteBatcher([]int{0, 0, 1, 1}); err == nil {
		t.Error("accepted non-permutation")
	}
}

// TestRoutersAgree: all routers realize the same assignment (the realized
// permutation is unique for a full permutation assignment).
func TestRoutersAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	n := 32
	rp := NewRadixPermuter(n, concentrator.MuxMerger, 0)
	for trial := 0; trial < 30; trial++ {
		dest := randPerm(rng, n)
		a, err := rp.Route(dest)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RouteBatcher(dest)
		if err != nil {
			t.Fatal(err)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("radix %v != batcher %v for dest %v", a, b, dest)
			}
		}
	}
}

// TestRadixPermuterProperty via testing/quick over random permutations.
func TestRadixPermuterProperty(t *testing.T) {
	r := NewRadixPermuter(16, concentrator.Fish, 4)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dest := randPerm(rng, 16)
		p, err := r.Route(dest)
		return err == nil && VerifyRouting(dest, p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRadixPermuterErrors(t *testing.T) {
	r := NewRadixPermuter(8, concentrator.MuxMerger, 0)
	if _, err := r.Route([]int{0, 1}); err == nil {
		t.Error("accepted wrong width")
	}
	if _, err := r.Route([]int{0, 1, 2, 3, 4, 5, 6, 6}); err == nil {
		t.Error("accepted non-permutation")
	}
	defer func() {
		if recover() == nil {
			t.Error("NewRadixPermuter(12) did not panic")
		}
	}()
	NewRadixPermuter(12, concentrator.MuxMerger, 0)
}

// TestRouteShardedCutover routes one assignment through
// RadixPermuter.Route at n = ShardedAutoThreshold: the result must be
// dest⁻¹, reached through the sharded plan without compiling the flat
// fused program — neither the permuter's own plan pointer nor the shared
// plan cache may hold a flat KindPermuter plan at that width.
func TestRouteShardedCutover(t *testing.T) {
	n := ShardedAutoThreshold
	rp := NewRadixPermuter(n, concentrator.MuxMerger, 0)
	dest := rand.New(rand.NewSource(73)).Perm(n)
	p, err := rp.Route(dest)
	if err != nil {
		t.Fatal(err)
	}
	if !permEqual(p, inverse(dest)) {
		t.Fatal("Route at the sharded cut-over does not realize dest⁻¹")
	}
	if rp.plan.Load() != nil {
		t.Error("Route compiled the permuter's flat plan at the sharded cut-over")
	}
	key := planner.PlanKey{Kind: planner.KindPermuter, N: n, Engine: int8(concentrator.MuxMerger)}
	if _, ok := planner.Shared.Get(key); ok {
		t.Errorf("flat KindPermuter plan at n=%d landed in planner.Shared", n)
	}
}

func TestVerifyRouting(t *testing.T) {
	if !VerifyRouting([]int{1, 0}, []int{1, 0}) {
		t.Error("valid routing rejected")
	}
	if VerifyRouting([]int{0, 1}, []int{1, 0}) {
		t.Error("invalid routing accepted")
	}
	if VerifyRouting([]int{0}, []int{0, 1}) {
		t.Error("length mismatch accepted")
	}
}

// TestRouteComparatorNetworkEngine: Batcher's network as a concentrator
// engine agrees with word-level Batcher permutation routing and sorts
// tags on every pattern at n=8.
func TestRouteComparatorNetworkEngine(t *testing.T) {
	nw := cmpnet.OddEvenMergeSort(8)
	bitvec.All(8, func(tags bitvec.Vector) bool {
		p := concentrator.RouteComparatorNetwork(nw, tags)
		out := make(bitvec.Vector, 8)
		seen := make([]bool, 8)
		for j, i := range p {
			if seen[i] {
				t.Fatalf("duplicate input %d", i)
			}
			seen[i] = true
			out[j] = tags[i]
		}
		if !out.IsSorted() {
			t.Errorf("tags %s routed to %s", tags, out)
			return false
		}
		return true
	})
}
