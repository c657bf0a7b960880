package planner

// Pins for the AVX2 plane-run kernels: the path is chosen by the CPU's
// capability, and with it forced on each kernel leaves memory exactly as
// its Go loop does, at every run length that exercises the 4-word blocks
// and the 0–3-word tail.

import (
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
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
