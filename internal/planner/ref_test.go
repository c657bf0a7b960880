package planner

// The reference interpreter: a deliberately naive executor of compiled
// Programs, written from the op definitions in planner.go and the
// paper's four-way swapper tables rather than from either runner. It
// takes one step at a time over plain packet words and builds every
// moved window in a fresh slice — no pooling, fusion or in-place tricks. The differential
// below checks Run, RunStuck, RunScratch and the packed engine against it
// on random well-formed programs, every plane of every position, with
// random per-lane preset select settings.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"absort/internal/core"
	"absort/internal/netlist"
	"absort/internal/swapper"
)

// refShift is the packet-word bit of front plane 0 in the test words:
// plane b rides at bit refShift+b, the origin index in the bits below.
const refShift = 31

// refRun executes p over vals with the semantics of each Op's comment:
// the tag shift starts at Layout.TagShift, select slots are recorded by
// FourIn/CondIn and replayed by FourOut/CondOut, and OpSelSwap reads its
// slot's preset setting from presets (one per slot, or nil for none).
func refRun(p *Program, vals []uint64, presets []uint8) {
	sel := make([]int, p.nsel)
	for s, v := range presets {
		sel[s] = int(v)
	}
	sh := p.layout.TagShift
	m := 0 // ones count of the active patch-up chain
	tag := func(i int) int { return int(vals[i] >> sh & 1) }
	cmpx := func(a, b int) {
		if tag(a) == 1 && tag(b) == 0 {
			vals[a], vals[b] = vals[b], vals[a]
		}
	}
	for _, st := range p.steps {
		lo, hi, aux := int(st.Lo), int(st.Hi), int(st.Aux)
		s := hi - lo
		var from []int // from[j]: the position whose word lands at lo+j
		switch st.Op {
		case OpCmpSwap:
			cmpx(lo, lo+1)
		case OpCmpPair:
			cmpx(lo, hi)
		case OpEndsStage:
			for blo := lo; blo < hi; blo += aux { // pair by pair
				for i := 0; i < aux/2; i++ {
					cmpx(blo+i, blo+aux-1-i)
				}
			}
		case OpFourIn:
			q := s / 4
			sel[aux] = 2*tag(lo+q) + tag(lo+3*q)
			from = refQuarters(lo, q, swapper.INSwap[sel[aux]])
		case OpFourOut:
			from = refQuarters(lo, s/4, swapper.OUTSwap[sel[aux]])
		case OpShuffleCount, OpShuffle:
			for i := 0; i < s/2; i++ {
				from = append(from, lo+i, lo+s/2+i)
			}
			if st.Op == OpShuffleCount {
				m = 0
				for i := lo; i < hi; i++ {
					m += tag(i)
				}
			}
		case OpUnshuffle:
			for i := 0; i < s; i += 2 {
				from = append(from, lo+i)
			}
			for i := 1; i < s; i += 2 {
				from = append(from, lo+i)
			}
		case OpCondIn, OpCondOut:
			if st.Op == OpCondIn {
				sel[aux] = 0
				if m >= s/2 {
					m -= s / 2
					sel[aux] = 1
				}
			}
			for i := 0; sel[aux] == 1 && i < s; i++ { // swap the halves
				from = append(from, lo+(i+s/2)%s)
			}
		case OpFishSplit:
			// Block j is sorted, so its middle tag names its clean
			// half: the lower half is all 0s when the middle tag is 0,
			// the upper half all 1s when it is 1.
			bs := s / aux
			half := bs / 2
			var up, dn []int
			for blo := lo; blo < hi; blo += bs {
				clean, dirty := blo, blo+half
				if tag(blo+half) == 1 {
					clean, dirty = blo+half, blo
				}
				for t := 0; t < half; t++ {
					up = append(up, clean+t)
					dn = append(dn, dirty+t)
				}
			}
			from = append(up, dn...)
		case OpFishClean:
			bs := s / aux
			for _, blo := range refStable(lo, hi, bs, tag) {
				for t := 0; t < bs; t++ {
					from = append(from, blo+t)
				}
			}
		case OpRank:
			from = refStable(lo, hi, 1, tag)
		case OpSetTag:
			sh = uint(st.Lo)
		case OpSelSwap:
			if sel[aux] == 1 {
				from = []int{lo + 1, lo}
			}
		case OpPermute:
			for _, src := range p.perms[aux : aux+s] {
				from = append(from, lo+int(src))
			}
		default:
			panic(fmt.Sprintf("refRun: op %d has no reference form here", st.Op))
		}
		if from != nil {
			out := make([]uint64, s)
			for j, f := range from {
				out[j] = vals[f]
			}
			copy(vals[lo:hi], out)
		}
	}
}

// refQuarters lists the sources of the quarter permutation perm over
// the window of quarter size q at lo: output quarter i receives input
// quarter perm[i].
func refQuarters(lo, q int, perm netlist.Perm4) []int {
	var from []int
	for _, src := range perm {
		for t := 0; t < q; t++ {
			from = append(from, lo+int(src)*q+t)
		}
	}
	return from
}

// refStable lists the units of size u of [lo,hi) in stable 0s-before-1s
// order of their first word's tag.
func refStable(lo, hi, u int, tag func(int) int) []int {
	var zeros, ones []int
	for i := lo; i < hi; i += u {
		if tag(i) == 0 {
			zeros = append(zeros, i)
		} else {
			ones = append(ones, i)
		}
	}
	return append(zeros, ones...)
}

// randProgram lowers a random well-formed program over n positions with
// front planes riding at refShift: sorter windows (MMSort, PrefixSort,
// FishSort, Rank) at random offsets, single comparators, comparator
// stages of random block size (EndsStage, and the same stages as
// OpCmpPair runs for Compile to fold), fixed permutations, shuffles and
// unshuffles, tag retargets to any front plane, up or down, and columns
// of preset 2×2 switches (OpSelSwap).
func randProgram(rng *rand.Rand, n, front int) *Program {
	var b Builder
	lg := core.Lg(n)
	tp := rng.Intn(front)
	for range 3 + rng.Intn(8) {
		lgs := 1 + rng.Intn(lg)
		s := int32(1) << lgs
		lo := int32(rng.Intn(n - int(s) + 1))
		hi := lo + s
		bs := int32(2) << rng.Intn(lgs) // a stage's block size, 2..s
		switch rng.Intn(12) {
		case 0:
			b.MMSort(lo, hi)
		case 1:
			b.PrefixSort(lo, hi)
		case 2:
			b.FishSort(lo, hi, 2<<rng.Intn(lgs)) // k = 2..s
		case 3:
			b.Rank(lo, hi)
		case 4:
			i := rng.Intn(n)
			j := (i + 1 + rng.Intn(n-1)) % n
			b.CmpPair(int32(i), int32(j))
		case 5:
			for blo := lo; blo < hi; blo += bs { // folds to one OpEndsStage
				for i := int32(0); i < bs/2; i++ {
					b.CmpPair(blo+i, blo+bs-1-i)
				}
			}
		case 6:
			pm := make([]int32, s)
			for j, v := range rng.Perm(int(s)) {
				pm[j] = int32(v)
			}
			b.Permute(lo, hi, pm)
		case 7:
			b.Shuffle(lo, hi)
		case 8:
			b.Unshuffle(lo, hi)
		case 9:
			p := rng.Intn(front)
			b.SetTag(uint(refShift+p), int32(p))
		case 10:
			for i := int32(0); i < s/2; i++ {
				b.SelSwap(lo+2*i, b.NewSel())
			}
		case 11:
			b.EndsStage(lo, hi, bs)
		}
	}
	return b.Compile(Layout{
		N:           n,
		FrontPlanes: front,
		TagShift:    uint(refShift + tp),
		TagPlane:    tp,
	})
}

// refLanes is the widest lane count the differential replays: one lane
// word.
const refLanes = PackedLanes

// checkAgainstRef replays prog passes times over refLanes random lanes
// with the reference interpreter, the scalar runners and the packed
// engine at lane counts {1, 7, 64}. Each lane draws a random setting for
// every select slot: OpSelSwap reads it as the preset, and the recording
// ops overwrite the slots they own. The reference reads the settings
// directly, RunScratch through its preset select buffer and the packed
// engine through LoadSelBits; Run and RunStuck take no presets, so they
// run only programs without OpSelSwap. Every pass writes fresh random
// front planes and keeps the index planes (composition: the second pass
// starts from the first pass's permutation). Each runner must leave
// every plane of every position as the reference does.
func checkAgainstRef(t *testing.T, name string, prog *Program, passes int, rng *rand.Rand) {
	t.Helper()
	n, F := prog.layout.N, prog.layout.FrontPlanes
	fronts := make([][][]int, passes) // fronts[pass][lane][position]
	for ps := range fronts {
		fronts[ps] = make([][]int, refLanes)
		for l := range fronts[ps] {
			fronts[ps][l] = make([]int, n)
			for i := range fronts[ps][l] {
				fronts[ps][l][i] = rng.Intn(1 << F)
			}
		}
	}
	sets := make([][]uint8, refLanes)     // sets[lane][slot]
	selBits := make([][]uint64, refLanes) // the same settings, bit-packed
	for l := range sets {
		sets[l] = make([]uint8, prog.nsel)
		selBits[l] = make([]uint64, (prog.nsel+63)/64)
		for s := range sets[l] {
			if rng.Intn(2) == 1 {
				sets[l][s] = 1
				selBits[l][s/64] |= 1 << (s % 64)
			}
		}
	}
	// setFront replaces a word's front planes, keeping its origin index.
	setFront := func(v uint64, front int) uint64 {
		return v&(1<<refShift-1) | uint64(front)<<refShift
	}
	want := make([][]uint64, refLanes)
	for l := range want {
		want[l] = make([]uint64, n)
		for i := range want[l] {
			want[l][i] = uint64(i)
		}
		for ps := range fronts {
			for i, v := range want[l] {
				want[l][i] = setFront(v, fronts[ps][l][i])
			}
			refRun(prog, want[l], sets[l])
		}
	}
	runners := []string{"RunScratch"}
	if !slices.ContainsFunc(prog.steps, func(st Step) bool { return st.Op == OpSelSwap }) {
		runners = append(runners, "Run", "RunStuck")
	}
	for _, runner := range runners {
		bad := 0
		for l := range want {
			got := make([]uint64, n)
			for i := range got {
				got[i] = uint64(i)
			}
			for ps := range fronts {
				for i, v := range got {
					got[i] = setFront(v, fronts[ps][l][i])
				}
				switch runner {
				case "Run":
					prog.Run(got)
				case "RunStuck":
					if err := prog.RunStuck(got, nil); err != nil {
						t.Fatal(err)
					}
				case "RunScratch":
					sc := prog.Get()
					copy(sc.Sel(), sets[l])
					copy(sc.Val, got)
					prog.RunScratch(sc)
					copy(got, sc.Val)
					prog.Put(sc)
				}
			}
			if !slices.Equal(got, want[l]) {
				bad++
			}
		}
		if bad > 0 {
			t.Errorf("%s: %s differs from the reference on %d of %d lanes", name, runner, bad, refLanes)
		}
	}
	for _, lanes := range []int{1, 7, refLanes} {
		pp, err := prog.Packed()
		if err != nil {
			t.Fatal(err)
		}
		sc := pp.Get()
		pp.LoadDestLanes(sc.Val, fronts[0][:lanes])
		pp.LoadSelBits(sc, selBits[:lanes])
		for ps := range fronts {
			if ps > 0 {
				refPackFront(pp, sc.Val, fronts[ps][:lanes])
			}
			pp.Run(sc)
		}
		if bad, misrouted, first := refPlaneMismatch(pp, sc.Val, want[:lanes]); bad > 0 {
			t.Errorf("%s: Packed with %d lanes, avx2=%v: %d lanes differ from the reference, %d of them misrouted; first (lane, position, plane): %v",
				name, lanes, useAVX2, bad, misrouted, first)
		}
		pp.Put(sc)
	}
}

// refPackFront overwrites the front planes of every position with the
// lanes' front values, leaving the index planes as they are.
func refPackFront(pp *Packed, val []uint64, fronts [][]int) {
	P := pp.P
	for i := 0; i < pp.N(); i++ {
		for b := 0; b < pp.F; b++ {
			wd := uint64(0)
			for l, f := range fronts {
				wd |= uint64(f[i]>>b&1) << l
			}
			val[i*P+b] = wd
		}
	}
}

// refPlaneMismatch compares every plane bit of every loaded lane with
// the reference words: front plane b is word bit refShift+b, index plane
// F+b is bit b of the origin. It returns the number of lanes that differ
// in any plane, the number whose index planes differ (misrouted
// packets), and the first differing (lane, position, plane).
func refPlaneMismatch(pp *Packed, val []uint64, want [][]uint64) (bad, misrouted int, first [3]int) {
	P, F := pp.P, pp.F
	for l, w := range want {
		front, index := false, false
		for j, v := range w {
			for b := 0; b < P; b++ {
				bit := refShift + b
				if b >= F {
					bit = b - F
				}
				if val[j*P+b]>>l&1 == v>>bit&1 {
					continue
				}
				if !front && !index && bad == 0 {
					first = [3]int{l, j, b}
				}
				if b < F {
					front = true
				} else {
					index = true
				}
			}
		}
		if front || index {
			bad++
		}
		if index {
			misrouted++
		}
	}
	return bad, misrouted, first
}

// TestRefSorts pins the reference interpreter to the sorters' contract
// rather than to a runner: every binary sorter, on random tags, leaves
// the window's tags in 0s-before-1s order.
func TestRefSorts(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, sorter := range []struct {
		name string
		sort func(b *Builder, lo, hi int32)
	}{
		{"mux-merger", (*Builder).MMSort},
		{"prefix", (*Builder).PrefixSort},
		{"fish", fishOrMM},
		{"rank", (*Builder).Rank},
	} {
		for _, n := range []int{2, 4, 16, 64} {
			var b Builder
			sorter.sort(&b, 0, int32(n))
			prog := b.Compile(Layout{N: n, FrontPlanes: 1, TagShift: refShift})
			for trial := 0; trial < 50; trial++ {
				vals := make([]uint64, n)
				for i := range vals {
					vals[i] = uint64(rng.Intn(2))<<refShift | uint64(i)
				}
				refRun(prog, vals, nil)
				if !slices.IsSortedFunc(vals, func(a, b uint64) int { return int(a>>refShift) - int(b>>refShift) }) {
					t.Fatalf("%s n=%d: reference left tags unsorted: %x", sorter.name, n, vals)
				}
			}
		}
	}
}

// TestRefDifferential checks every runner against the reference
// interpreter, once per kernel path the CPU can run: random well-formed
// programs, plus the two shapes a bounded packed runner got wrong — a
// tag retarget to a plane above the one the program sorted on, and a
// second replay over the first replay's index planes — and a
// Beneš-shaped preset-select program replayed twice.
func TestRefDifferential(t *testing.T) {
	for _, vec := range vectorPaths() {
		setVector(t, vec)
		rng := rand.New(rand.NewSource(25))

		// Sort on plane 0, then retarget up to plane 2 and sort again: the
		// second sort must see plane 2 where the first sort moved it.
		var up Builder
		up.MMSort(0, 16)
		up.SetTag(refShift+2, 2)
		up.MMSort(0, 16)
		checkAgainstRef(t, "upward retarget", up.Compile(Layout{N: 16, FrontPlanes: 4, TagShift: refShift}), 1, rng)

		// A radix permuter's levels replayed twice over one plane array.
		var radix Builder
		radixLevels(&radix, 64, fishOrMM)
		lg := core.Lg(64)
		checkAgainstRef(t, "two-pass radix", radix.Compile(Layout{
			N: 64, FrontPlanes: lg, TagShift: uint(refShift + lg - 1), TagPlane: lg - 1,
		}), 2, rng)

		// Preset switch columns around an unshuffle/shuffle pair, then a
		// tag-driven sort, replayed twice: the presets must hold across
		// replays while the recorded slots are rewritten.
		var benes Builder
		for i := int32(0); i < 16; i += 2 {
			benes.SelSwap(i, benes.NewSel())
		}
		benes.Unshuffle(0, 16)
		for i := int32(0); i < 16; i += 2 {
			benes.SelSwap(i, benes.NewSel())
		}
		benes.Shuffle(0, 16)
		benes.MMSort(0, 16)
		checkAgainstRef(t, "preset selects", benes.Compile(Layout{N: 16, FrontPlanes: 1, TagShift: refShift}), 2, rng)

		for trial := 0; trial < 60; trial++ {
			n := 4 << rng.Intn(5) // 4..64
			prog := randProgram(rng, n, 1+rng.Intn(core.Lg(n)))
			checkAgainstRef(t, fmt.Sprintf("random #%d n=%d", trial, n), prog, 1+trial%2, rng)
		}
	}
}
