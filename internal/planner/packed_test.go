package planner

// Pins for the bit-block transposes the packed runner's load/extract
// stages depend on (both are involutions, which is what lets
// LoadDestLanes and Extract share them in opposite directions), for the
// packed runner's scratch sizing, and for its kernels against the scalar
// runner lane by lane.

import (
	"math/rand"
	"testing"

	"absort/internal/core"
)

// TestTranspose64 pins the 64×64 bit-block transpose convention: after
// transpose, row r bit c equals the original row c bit r.
func TestTranspose64(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	var a, orig [64]uint64
	for i := range a {
		a[i] = rng.Uint64()
		orig[i] = a[i]
	}
	Transpose64(&a)
	for r := 0; r < 64; r++ {
		for c := 0; c < 64; c++ {
			if a[r]>>uint(c)&1 != orig[c]>>uint(r)&1 {
				t.Fatalf("Transpose64: row %d bit %d = %d, want original row %d bit %d = %d",
					r, c, a[r]>>uint(c)&1, c, r, orig[c]>>uint(r)&1)
			}
		}
	}
	Transpose64(&a)
	if a != orig {
		t.Fatal("Transpose64 is not an involution")
	}
}

// TestTranspose16x4 pins the lane-packing fast path's transpose: four
// parallel 16×16 bit transposes, one per 16-bit field of the 16 rows —
// row r bit (16q + c) swaps with row c bit (16q + r) for every field q.
func TestTranspose16x4(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var a, orig [16]uint64
	for i := range a {
		a[i] = rng.Uint64()
		orig[i] = a[i]
	}
	Transpose16x4(&a)
	for q := 0; q < 4; q++ {
		for r := 0; r < 16; r++ {
			for c := 0; c < 16; c++ {
				got := a[r] >> uint(16*q+c) & 1
				want := orig[c] >> uint(16*q+r) & 1
				if got != want {
					t.Fatalf("Transpose16x4: field %d row %d bit %d = %d, want original row %d bit %d = %d",
						q, r, c, got, c, r, want)
				}
			}
		}
	}
	Transpose16x4(&a)
	if a != orig {
		t.Fatal("Transpose16x4 is not an involution")
	}
}

// TestPackedTmpSize pins the plane array at n·P words and the copy
// scratch at what its borrowers touch, max(n·P, 2F+2) words: a replay's
// shuffle copies the n·P plane array, the concentrator stages n tag
// words, and SplitFront's two counters take 2F+2.
func TestPackedTmpSize(t *testing.T) {
	for _, tc := range []struct {
		name          string
		n, front      int
		wantP, wantTm int
	}{
		// Permuter layout at n=4096: lg n front planes, P = 24.
		{"permuter n=4096", 4096, 12, 24, 4096 * 24},
		// Concentrator layout at n=16: one tag plane, P = 5.
		{"concentrator n=16", 16, 1, 5, 16 * 5},
		// The 1-input program: no index planes, so the counters dominate.
		{"concentrator n=1", 1, 1, 1, 4},
	} {
		var b Builder
		b.MMSort(0, int32(tc.n))
		prog := b.Compile(Layout{
			N:           tc.n,
			FrontPlanes: tc.front,
			TagShift:    uint(31 + tc.front - 1),
			TagPlane:    tc.front - 1,
		})
		pp, err := prog.Packed()
		if err != nil {
			t.Fatal(err)
		}
		if pp.P != tc.wantP {
			t.Fatalf("%s: P = %d, want %d", tc.name, pp.P, tc.wantP)
		}
		sc := pp.Get()
		if len(sc.Tmp) != tc.wantTm {
			t.Errorf("%s: len(Tmp) = %d words, want %d", tc.name, len(sc.Tmp), tc.wantTm)
		}
		if len(sc.Val) != tc.n*tc.wantP {
			t.Errorf("%s: len(Val) = %d words, want n·P = %d", tc.name, len(sc.Val), tc.n*tc.wantP)
		}
		pp.Put(sc)
	}
}

// radixLevels lowers a radix permuter's levels with sort as the
// distribution sorter: level d retargets the tag to destination bit
// lg n−1−d (scalar bit 31+lg n−1−d, packed front plane lg n−1−d) and
// sorts every window of size n>>d — the dest-riding layout, whose tag
// plane OpSetTag moves down one front plane per level.
func radixLevels(b *Builder, n int, sort func(b *Builder, lo, hi int32)) {
	lg := core.Lg(n)
	for d := 0; d < lg; d++ {
		b.SetTag(uint(31+lg-1-d), int32(lg-1-d))
		for lo, s := 0, n>>d; lo < n; lo += s {
			sort(b, int32(lo), int32(lo+s))
		}
	}
}

// fishOrMM lowers the fish sorter at its default group count, or the
// mux-merger below the fish sorter's smallest width.
func fishOrMM(b *Builder, lo, hi int32) {
	if s := int(hi - lo); s >= 4 {
		b.FishSort(lo, hi, int32(DefaultFishK(s)))
		return
	}
	b.MMSort(lo, hi)
}

// TestPackedMatchesScalarLanes replays mux-merger and fish programs
// packed and checks every lane against the scalar Program.Run of the same
// request, on the single-tag layout and on the dest-riding layout (lg n
// front planes retargeted by OpSetTag), at lane counts that fill and
// split a lane word — once per kernel path the CPU can run (the
// Go loops, and the AVX2 kernels where present).
func TestPackedMatchesScalarLanes(t *testing.T) {
	for _, vec := range vectorPaths() {
		setVector(t, vec)
		checkPackedMatchesScalarLanes(t)
	}
}

func checkPackedMatchesScalarLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, sorter := range []struct {
		name string
		sort func(b *Builder, lo, hi int32)
	}{
		{"mux-merger", (*Builder).MMSort},
		{"fish", fishOrMM},
	} {
		for _, n := range []int{4, 8, 64, 256} {
			lg := core.Lg(n)
			for _, dest := range []bool{false, true} {
				var b Builder
				layout := Layout{N: n, FrontPlanes: 1, TagShift: 63}
				if dest {
					radixLevels(&b, n, sorter.sort)
					layout = Layout{N: n, FrontPlanes: lg, TagShift: uint(31 + lg - 1), TagPlane: lg - 1}
				} else {
					sorter.sort(&b, 0, int32(n))
				}
				prog := b.Compile(layout)
				for _, lanes := range []int{1, 7, 64} {
					pp, err := prog.Packed()
					if err != nil {
						t.Fatal(err)
					}
					sc := pp.Get()
					want := make([][]uint64, lanes) // per-lane scalar packet words
					if dest {
						dests := make([][]int, lanes)
						for l := range dests {
							dests[l] = rng.Perm(n)
							want[l] = make([]uint64, n)
							for i, d := range dests[l] {
								want[l][i] = uint64(d)<<31 | uint64(i)
							}
						}
						pp.LoadDestLanes(sc.Val, dests)
					} else {
						tags := make([]uint64, n)
						for l := range want {
							want[l] = make([]uint64, n)
							for i := range want[l] {
								tag := uint64(rng.Intn(2))
								tags[i] |= tag << uint(l)
								want[l][i] = tag<<63 | uint64(i)
							}
						}
						pp.LoadTagWords(sc.Val, tags)
					}
					pp.Run(sc)
					got := make([][]int, lanes)
					for l := range got {
						got[l] = make([]int, n)
					}
					pp.Extract(got, sc.Val)
					pp.Put(sc)
					for l, w := range want {
						prog.Run(w)
						for j, v := range w {
							if origin := int(v & (1<<31 - 1)); got[l][j] != origin {
								t.Fatalf("%s n=%d dest=%v lanes=%d avx2=%v: lane %d position %d holds origin %d packed, %d scalar",
									sorter.name, n, dest, lanes, useAVX2, l, j, got[l][j], origin)
							}
						}
					}
				}
			}
		}
	}
}
