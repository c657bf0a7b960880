package planner_test

// Pins for comparator stages: the periodic engine lowers straight to
// OpEndsStage steps, Compile folds a generic network's stage-shaped
// OpCmpPair runs into the same op, and both must compute what the
// network's comparators compute one at a time — RunStuck with faults
// forced after every comparator, and the packed engine lane by lane.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"absort/internal/cmpnet"
	"absort/internal/concentrator"
	"absort/internal/core"
	"absort/internal/permnet"
	"absort/internal/planner"
)

// TestFoldPeriodicPermuter pins the stage structure of the largest
// comparator program the benchmark serves: the periodic radix permuter
// at n=4096 is Σ over levels of (n/s)·(lg s)² stage ops plus one tag
// retarget per level below the first, and the periodic concentrator at
// n=4096 is its 12 periods of 12 stages.
func TestFoldPeriodicPermuter(t *testing.T) {
	for _, tc := range []struct {
		name string
		prog *planner.Program
		want int
	}{
		{"permuter", permnet.NewRadixPermuter(4096, cmpnet.EnginePeriodic, 0).Compile().Program(), 24_389},
		{"concentrator", concentrator.NewPlan(4096, cmpnet.EnginePeriodic, 0).Program(), 144},
	} {
		for i, st := range tc.prog.Steps() {
			if st.Op != planner.OpEndsStage && st.Op != planner.OpSetTag {
				t.Fatalf("periodic %s step %d is %+v, want only OpEndsStage and OpSetTag", tc.name, i, st)
			}
		}
		if got := tc.prog.NumSteps(); got != tc.want {
			t.Errorf("periodic %s at n=4096 has %d steps, want %d", tc.name, got, tc.want)
		}
	}
}

// TestFoldNetworkStages compiles comparator networks through the generic
// LowerTo path: the periodic network must fold to exactly the periodic
// engine's direct lowering, and a network of adjacent pairs (odd-even
// transposition, whose odd stages start off block alignment) must fold
// each stage into one OpEndsStage of block size 2.
func TestFoldNetworkStages(t *testing.T) {
	for n := 4; n <= 256; n *= 2 { // at n=2 the one comparator stays an OpCmpPair
		var b planner.Builder
		cmpnet.PeriodicBalancedSort(n).LowerTo(&b, 0)
		folded := b.Compile(planner.Layout{N: n, FrontPlanes: 1, TagShift: 63}).Steps()
		direct := concentrator.NewPlan(n, cmpnet.EnginePeriodic, 0).Program().Steps()
		if !slices.Equal(folded, direct) {
			t.Fatalf("n=%d: folded PeriodicBalancedSort has %d steps, direct lowering %d; they differ",
				n, len(folded), len(direct))
		}
	}
	var b planner.Builder
	cmpnet.OddEvenTransposition(8).LowerTo(&b, 0)
	got := b.Compile(planner.Layout{N: 8, FrontPlanes: 1, TagShift: 63}).Steps()
	for i, st := range got {
		want := planner.Step{Op: planner.OpEndsStage, Lo: int32(i % 2), Hi: 8 - int32(i%2), Aux: 2}
		if st != want {
			t.Fatalf("odd-even transposition step %d = %+v, want %+v", i, st, want)
		}
	}
	if len(got) != 8 {
		t.Fatalf("odd-even transposition n=8 folds to %d steps, want 8", len(got))
	}
}

// TestEndsStageRejectsMalformed pins Builder.EndsStage's lowering-bug
// panics: a block size that is not a power of two, below 2, or not
// dividing the window (an empty window included).
func TestEndsStageRejectsMalformed(t *testing.T) {
	for _, c := range [][3]int32{{0, 8, 3}, {0, 8, 1}, {0, 8, 0}, {0, 8, -2}, {0, 12, 8}, {0, 4, 8}, {4, 4, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("EndsStage(%d, %d, %d) did not panic", c[0], c[1], c[2])
				}
			}()
			var b planner.Builder
			b.EndsStage(c[0], c[1], c[2])
		}()
	}
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
			if tc.name == "periodic" && !slices.ContainsFunc(prog.Steps(), func(st planner.Step) bool {
				return st.Op == planner.OpEndsStage
			}) {
				t.Fatalf("%s n=%d: nothing folded to OpEndsStage (%d steps, %d before)", tc.name, n, prog.NumSteps(), len(raw))
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
				replayComparators(t, want, raw, perms, 63, faults)
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

// TestPeriodicLoweringMatchesNetwork keeps the generic lowering as the
// reference for the periodic engine's direct one: the concentrator and
// radix permuter plans of every width 2..1024 must compute, under Run,
// RunStuck with random stuck-at faults, and the 64-lane packed engine on
// each kernel path, what PeriodicBalancedSort's LowerTo comparators
// compute one at a time, unfolded.
func TestPeriodicLoweringMatchesNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for n := 2; n <= 1024; n *= 2 {
		lg := core.Lg(n)
		for _, permuter := range []bool{false, true} {
			name := fmt.Sprintf("concentrator n=%d", n)
			prog := concentrator.NewPlan(n, cmpnet.EnginePeriodic, 0).Program()
			if permuter {
				name = fmt.Sprintf("permuter n=%d", n)
				prog = permnet.NewRadixPermuter(n, cmpnet.EnginePeriodic, 0).Compile().Program()
			}
			layout := prog.Layout()
			shift0 := layout.TagShift - uint(layout.TagPlane) // bit of front plane 0
			raw, perms := periodicReference(n, permuter, shift0)

			// word builds a packet word: front value f above shift0, origin i.
			word := func(f, i int) uint64 { return uint64(f)<<shift0 | uint64(i) }
			fronts := func() []int {
				f := make([]int, n)
				for i := range f {
					f[i] = rng.Intn(1 << layout.FrontPlanes)
				}
				return f
			}
			for trial := 0; trial < 20; trial++ {
				f := fronts()
				vals := make([]uint64, n)
				for i := range vals {
					vals[i] = word(f[i], i)
				}
				want := slices.Clone(vals)
				replayComparators(t, want, raw, perms, layout.TagShift, nil)
				got := slices.Clone(vals)
				prog.Run(got)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: Run differs from the unfolded network", name)
				}

				faults := make([]planner.StuckFault, 1+rng.Intn(3))
				for j := range faults {
					bit := uint(rng.Intn(lg)) // an origin-index bit
					if rng.Intn(2) == 0 {
						bit = shift0 + uint(rng.Intn(layout.FrontPlanes)) // a tag bit
					}
					faults[j] = planner.StuckBit(rng.Intn(n), bit, uint8(rng.Intn(2)))
				}
				want = slices.Clone(vals)
				replayComparators(t, want, raw, perms, layout.TagShift, faults)
				got = slices.Clone(vals)
				if err := prog.RunStuck(got, faults); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s faults %+v: RunStuck differs from the unfolded network", name, faults)
				}
			}

			pp, err := prog.Packed()
			if err != nil {
				t.Fatal(err)
			}
			lanes := make([][]int, planner.PackedLanes)
			want := make([][]uint64, len(lanes))
			for l := range lanes {
				lanes[l] = fronts()
				want[l] = make([]uint64, n)
				for i := range want[l] {
					want[l][i] = word(lanes[l][i], i)
				}
				replayComparators(t, want[l], raw, perms, layout.TagShift, nil)
			}
			for _, vec := range planner.VectorPaths() {
				t.Run(fmt.Sprintf("%s/avx2=%v", name, vec), func(t *testing.T) {
					planner.SetVector(t, vec)
					sc := pp.Get()
					defer pp.Put(sc)
					if permuter {
						pp.LoadDestLanes(sc.Val, lanes)
					} else {
						tags := make([]uint64, n)
						for l, f := range lanes {
							for i, v := range f {
								tags[i] |= uint64(v) << l
							}
						}
						pp.LoadTagWords(sc.Val, tags)
					}
					pp.Run(sc)
					for l, w := range want {
						for i, v := range w {
							for b := 0; b < pp.P; b++ {
								bit := shift0 + uint(b)
								if b >= pp.F {
									bit = uint(b - pp.F)
								}
								if sc.Val[i*pp.P+b]>>l&1 != v>>bit&1 {
									t.Fatalf("lane %d position %d plane %d differs from the unfolded network", l, i, b)
								}
							}
						}
					}
				})
			}
		}
	}
}

// periodicReference lowers the periodic engine's plan shape through the
// generic comparator path, unfolded: for a concentrator,
// PeriodicBalancedSort(n) over the whole width; for the radix permuter,
// its levels — a retarget to the next lower destination bit (front
// plane 0 riding at packet-word bit shift0) per level below the first,
// then PeriodicBalancedSort(s) over every s-window of the level.
func periodicReference(n int, permuter bool, shift0 uint) ([]planner.Step, []int32) {
	var b planner.Builder
	if !permuter {
		cmpnet.PeriodicBalancedSort(n).LowerTo(&b, 0)
	} else {
		bit := core.Lg(n) - 1
		for s := n; s >= 2; s, bit = s/2, bit-1 {
			if s < n {
				b.SetTag(shift0+uint(bit), int32(bit))
			}
			for lo := 0; lo < n; lo += s {
				cmpnet.PeriodicBalancedSort(s).LowerTo(&b, int32(lo))
			}
		}
	}
	raw, perms := b.Steps()
	return slices.Clone(raw), slices.Clone(perms)
}

// replayComparators runs an unfolded comparator program one step at a
// time, the tag starting at packet-word bit sh, forcing the faults on
// the input load and after every step.
func replayComparators(t *testing.T, vals []uint64, steps []planner.Step, perms []int32, sh uint, faults []planner.StuckFault) {
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
			if a, b := vals[st.Lo], vals[st.Hi]; a>>sh&1 > b>>sh&1 {
				vals[st.Lo], vals[st.Hi] = b, a
			}
		case planner.OpPermute:
			src := slices.Clone(vals[st.Lo:st.Hi])
			for j, k := range perms[st.Aux : st.Aux+st.Hi-st.Lo] {
				vals[st.Lo+int32(j)] = src[k]
			}
		case planner.OpSetTag:
			sh = uint(st.Lo)
		default:
			t.Fatalf("comparator program holds op %d", st.Op)
		}
		stick()
	}
}
