package planner

// Declarations of the AVX2 kernels in kernels_amd64.s and the CPU check
// that enables them (useAVX2, packed.go).

// cpuHasAVX2 reports whether the CPU has AVX2 and the OS has enabled the
// YMM register state (XCR0 bits 1 and 2) the kernels need.
func cpuHasAVX2() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

//go:noescape
func blendInAVX2(a, b, c, d *uint64, n int, m0, m2, m3 uint64)

//go:noescape
func blendOutAVX2(a, b, c, d *uint64, n int, m0, m3 uint64)

//go:noescape
func swapWordsAVX2(x, y *uint64, n int, m uint64)

//go:noescape
func blendRangeAVX2(dst, src0, src1 *uint64, n int, d uint64)

//go:noescape
func transpose64AVX2(a *[64]uint64)

//go:noescape
func endsStageAVX2(v *uint64, nw, bw, pw, tp int)

//go:noescape
func transpose16x4ColsAVX2(a *[16][64]uint64)
