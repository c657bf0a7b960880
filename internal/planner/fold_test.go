package planner_test

// Pins for the comparator-stage fold at Builder.Compile: a run of
// opposite-ends OpCmpPair steps becomes one OpEndsSwap, which must leave
// no foldable run behind and must not change what RunStuck computes.

import (
	"math/rand"
	"slices"
	"testing"

	"absort/internal/cmpnet"
	"absort/internal/core"
	"absort/internal/permnet"
	"absort/internal/planner"
)

// TestFoldPeriodicPermuter pins the fold on the largest comparator
// program the benchmark serves: the periodic radix permuter at n=4096
// lowers 1.33M OpCmpPair steps, nearly all of them in opposite-ends runs
// of the balanced merging blocks.
func TestFoldPeriodicPermuter(t *testing.T) {
	prog := permnet.NewRadixPermuter(4096, cmpnet.EnginePeriodic, 0).Compile().Program()
	steps := prog.Steps()
	for i := range steps {
		if h := planner.EndsRun(steps[i:]); h > 0 {
			t.Fatalf("step %d opens an unfolded opposite-ends run of %d comparators: %+v", i, h, steps[i])
		}
	}
	if got := prog.NumSteps(); got >= 400_000 {
		t.Fatalf("periodic permuter at n=4096 has %d steps, want < 400000 after folding", got)
	}
	t.Logf("periodic permuter n=4096: %d steps", prog.NumSteps())
}

// TestFoldRunStuckMatchesComparators replays the periodic and bitonic
// networks' lowered comparator lists with stuck-at faults applied after
// every comparator, and checks RunStuck on the compiled (folded) program
// lands on the same packet words.
func TestFoldRunStuckMatchesComparators(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, tc := range []struct {
		name string
		nw   func(int) *cmpnet.Network
	}{
		{"periodic", cmpnet.PeriodicBalancedSort},
		{"bitonic", cmpnet.BitonicSort},
	} {
		for _, n := range []int{8, 16, 64} {
			var b planner.Builder
			tc.nw(n).LowerTo(&b, 0)
			raw, perms := b.Steps()
			raw, perms = slices.Clone(raw), slices.Clone(perms)
			prog := b.Compile(planner.Layout{N: n, FrontPlanes: 1, TagShift: 63})
			if tc.name == "periodic" && prog.NumSteps() >= len(raw) {
				t.Fatalf("%s n=%d: %d steps after folding, %d before", tc.name, n, prog.NumSteps(), len(raw))
			}
			lg := core.Lg(n)
			for trial := 0; trial < 300; trial++ {
				vals := make([]uint64, n)
				for i := range vals {
					vals[i] = uint64(rng.Intn(2))<<63 | uint64(i)
				}
				faults := make([]planner.StuckFault, 1+rng.Intn(3))
				for f := range faults {
					bit := uint(63)
					if rng.Intn(2) == 0 {
						bit = uint(rng.Intn(lg))
					}
					faults[f] = planner.StuckBit(rng.Intn(n), bit, uint8(rng.Intn(2)))
				}
				want := slices.Clone(vals)
				replayComparators(t, want, raw, perms, faults)
				got := slices.Clone(vals)
				if err := prog.RunStuck(got, faults); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s n=%d faults %+v: RunStuck = %x, per-comparator replay = %x",
						tc.name, n, faults, got, want)
				}
			}
		}
	}
}

// replayComparators runs an unfolded comparator program one step at a
// time, forcing the faults on the input load and after every step.
func replayComparators(t *testing.T, vals []uint64, steps []planner.Step, perms []int32, faults []planner.StuckFault) {
	t.Helper()
	stick := func() {
		for _, f := range faults {
			vals[f.Pos] = vals[f.Pos]&f.And | f.Or
		}
	}
	stick()
	for _, st := range steps {
		switch st.Op {
		case planner.OpCmpPair:
			if a, b := vals[st.Lo], vals[st.Hi]; a>>63 > b>>63 {
				vals[st.Lo], vals[st.Hi] = b, a
			}
		case planner.OpPermute:
			src := slices.Clone(vals[st.Lo:st.Hi])
			for j, k := range perms[st.Aux : st.Aux+st.Hi-st.Lo] {
				vals[st.Lo+int32(j)] = src[k]
			}
		default:
			t.Fatalf("comparator program holds op %d", st.Op)
		}
		stick()
	}
}
