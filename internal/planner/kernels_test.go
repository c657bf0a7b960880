package planner

// Pins for the AVX2 kernels: the path is chosen by the CPU's capability,
// and with it forced on each kernel leaves memory exactly as its Go loop
// does — the plane-run kernels at every run length that exercises the
// 4-word blocks and the 0–3-word tail, the comparator-stage kernel at
// every block size and packet width, the transposes on every matrix
// shape that tells their levels apart.

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"absort/internal/core"
)

// vectorPaths lists the kernel paths this CPU can run: the Go loops
// always, the AVX2 kernels where the CPU has them.
func vectorPaths() []bool {
	if cpuHasAVX2() {
		return []bool{false, true}
	}
	return []bool{false}
}

// setVector forces the kernel path for the rest of the test.
func setVector(t *testing.T, on bool) {
	old := useAVX2
	useAVX2 = on
	t.Cleanup(func() { useAVX2 = old })
}

// TestVectorPathMatchesCPU pins the package-init path choice to the CPU:
// the AVX2 kernels run exactly where the CPU reports AVX2 and the OS
// saves YMM state — never on another architecture — and, on Linux, where
// /proc/cpuinfo lists avx2 (the kernel drops the flag when it does not
// enable the YMM state).
func TestVectorPathMatchesCPU(t *testing.T) {
	if useAVX2 != cpuHasAVX2() {
		t.Fatalf("useAVX2 = %v, CPU check reports %v", useAVX2, cpuHasAVX2())
	}
	if runtime.GOARCH != "amd64" {
		if useAVX2 {
			t.Fatalf("useAVX2 set on %s", runtime.GOARCH)
		}
		return
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo to cross-check: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		if key, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "flags" {
			listed := false
			for _, f := range strings.Fields(val) {
				listed = listed || f == "avx2"
			}
			if listed != useAVX2 {
				t.Fatalf("useAVX2 = %v, /proc/cpuinfo lists avx2: %v", useAVX2, listed)
			}
			return
		}
	}
	t.Skip("no flags line in /proc/cpuinfo")
}

// kernelCase is one kernel call over a fresh copy of a random buffer.
type kernelCase struct {
	name string
	run  func(v []uint64, n int, m [3]uint64)
}

// Each kernel's operands are n-word runs span = n+5 words apart, so a
// kernel that writes past its run lands on a dead word between them.
var kernelCases = []kernelCase{
	{"swapWords", func(v []uint64, n int, m [3]uint64) {
		span := n + 5
		swapWords(v[:n], v[span:], m[0])
	}},
	{"blendIn", func(v []uint64, n int, m [3]uint64) {
		span := n + 5
		blendIn(v[:n], v[span:], v[2*span:], v[3*span:], m[0], m[1], m[2])
	}},
	{"blendOut", func(v []uint64, n int, m [3]uint64) {
		span := n + 5
		blendOut(v[:n], v[span:], v[2*span:], v[3*span:], m[0], m[2])
	}},
	{"blendRange", func(v []uint64, n int, m [3]uint64) {
		span := n + 5
		blendRange(v[:n], v[span:], v[2*span:], m[0])
	}},
}

// TestKernelsMatchGoLoops compares each AVX2 kernel with its Go loop at
// every run length 0..67, under random masks and under the disjoint
// select masks fourIn/fourOut pass (m0 = ¬h1¬h2, m2 = h1¬h2, m3 = h1h2).
// The whole buffer must match, so a kernel that writes past its runs
// fails too.
func TestKernelsMatchGoLoops(t *testing.T) {
	if !cpuHasAVX2() {
		t.Skip("CPU has no AVX2 kernels")
	}
	setVector(t, true)
	rng := rand.New(rand.NewSource(24))
	for _, kc := range kernelCases {
		for n := 0; n <= 67; n++ {
			for trial := 0; trial < 4; trial++ {
				var m [3]uint64
				if trial%2 == 0 {
					m = [3]uint64{rng.Uint64(), rng.Uint64(), rng.Uint64()}
				} else {
					h1, h2 := rng.Uint64(), rng.Uint64()
					m = [3]uint64{^h1 &^ h2, h1 &^ h2, h1 & h2}
				}
				orig := make([]uint64, 4*(n+5)+3)
				for i := range orig {
					orig[i] = rng.Uint64()
				}
				want := append([]uint64(nil), orig...)
				got := append([]uint64(nil), orig...)
				useAVX2 = false
				kc.run(want, n, m)
				useAVX2 = true
				kc.run(got, n, m)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s n=%d masks %x: word %d = %x with AVX2, %x with the Go loop",
							kc.name, n, m, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestTransposeKernels pins the AVX2 transposes to their Go loops on
// random, all-ones and single-bit matrices (every single bit of the
// 64×64 matrix), and each transpose as an involution on every kernel
// path. transpose16x4Cols is checked column by column against
// Transpose16x4, its per-matrix definition.
func TestTransposeKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	var mats [][64]uint64
	var ones, r [64]uint64
	for i := range ones {
		ones[i] = ^uint64(0)
		r[i] = rng.Uint64()
	}
	mats = append(mats, r, ones)
	for bit := 0; bit < 64*64; bit++ {
		var m [64]uint64
		m[bit/64] = 1 << (bit % 64)
		mats = append(mats, m)
	}
	for _, vec := range vectorPaths() {
		setVector(t, vec)
		for _, m := range mats {
			want := m
			useAVX2 = false
			Transpose64(&want)
			useAVX2 = vec
			got := m
			Transpose64(&got)
			if got != want {
				t.Fatalf("avx2=%v: Transpose64 differs from the Go loop on %x", vec, m)
			}
			if Transpose64(&got); got != m {
				t.Fatalf("avx2=%v: Transpose64 twice is not the identity on %x", vec, m)
			}

			// The same words as 16 rows of 64 columns (plus a shifted
			// copy, so the rows differ).
			var cols [16][64]uint64
			for i := range cols {
				cols[i] = m
				cols[i][i] ^= uint64(i) << 40
			}
			orig := cols
			transpose16x4Cols(&cols)
			for l := 0; l < 64; l++ {
				var a [16]uint64
				for b := range a {
					a[b] = orig[b][l]
				}
				Transpose16x4(&a)
				for b := range a {
					if cols[b][l] != a[b] {
						t.Fatalf("avx2=%v: transpose16x4Cols column %d row %d = %x, Transpose16x4 gives %x",
							vec, l, b, cols[b][l], a[b])
					}
				}
			}
			if transpose16x4Cols(&cols); cols != orig {
				t.Fatalf("avx2=%v: transpose16x4Cols twice is not the identity", vec)
			}
		}
	}
}

// TestEndsStageKernel compares OpEndsStage's kernel with its Go stage
// loop over a 16-position window at every block size bs = 2..16 and
// every packet width P = 1..9 (each 0–3-word tail past the 4-word
// blocks), P = 13 (the concentrator's at n=4096) and P = 24 (the
// permuter's), with the tag in the first and the last plane, under
// all-zero tags (no pair exchanges), all-swap tags (every pair exchanges
// every lane) and random tags. The window sits between dead words, so a
// kernel that writes outside it fails too.
func TestEndsStageKernel(t *testing.T) {
	if !cpuHasAVX2() {
		t.Skip("CPU has no AVX2 kernels")
	}
	setVector(t, true)
	const s, pad = 16, 7
	rng := rand.New(rand.NewSource(28))
	for _, P := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 24} {
		for bs := 2; bs <= s; bs *= 2 {
			for _, tp := range []int{0, P - 1} {
				for _, tags := range []string{"all-zero", "all-swap", "random"} {
					orig := make([]uint64, s*P+2*pad)
					for i := range orig {
						orig[i] = rng.Uint64()
					}
					for i := 0; i < s; i++ {
						w := &orig[pad+i*P+tp]
						switch {
						case tags == "all-zero":
							*w = 0
						case tags == "all-swap" && i%bs < bs/2:
							*w = ^uint64(0)
						case tags == "all-swap":
							*w = 0
						}
					}
					want := append([]uint64(nil), orig...)
					got := append([]uint64(nil), orig...)
					useAVX2 = false
					endsStage(want[pad:pad+s*P], bs*P, P, tp)
					useAVX2 = true
					endsStage(got[pad:pad+s*P], bs*P, P, tp)
					if !slices.Equal(got, want) {
						t.Fatalf("P=%d bs=%d tag plane %d, %s tags: the kernel leaves %x, the Go loop %x",
							P, bs, tp, tags, got, want)
					}
					if tags == "all-swap" && slices.Equal(got, orig) {
						t.Fatalf("P=%d bs=%d: all-swap tags exchanged nothing", P, bs)
					}
				}
			}
		}
	}
}

// TestRefStageKernel replays random comparator-stage programs through
// the reference differential on layouts whose packet width P = F + lg n
// takes every value mod 4 — P % 4 == 0 runs the stage kernel with no
// tail — once per kernel path.
func TestRefStageKernel(t *testing.T) {
	for _, vec := range vectorPaths() {
		setVector(t, vec)
		rng := rand.New(rand.NewSource(28))
		var covered [4]bool
		for _, n := range []int{16, 64} {
			lg := core.Lg(n)
			for front := 1; front <= lg; front++ {
				P := front + lg
				covered[P%4] = true
				var b Builder
				for range 8 {
					lgs := 1 + rng.Intn(lg)
					sz := int32(1) << lgs
					lo := sz * int32(rng.Intn(n>>lgs))
					if p := rng.Intn(front); rng.Intn(3) == 0 {
						b.SetTag(uint(refShift+p), int32(p))
					}
					b.EndsStage(lo, lo+sz, 2<<rng.Intn(lgs))
				}
				prog := b.Compile(Layout{N: n, FrontPlanes: front, TagShift: refShift, TagPlane: 0})
				checkAgainstRef(t, fmt.Sprintf("stages n=%d P=%d", n, P), prog, 1, rng)
			}
		}
		if covered != [4]bool{true, true, true, true} {
			t.Fatalf("packet widths cover only %v of the residues mod 4", covered)
		}
	}
}
