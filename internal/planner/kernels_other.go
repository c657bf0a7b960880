//go:build !amd64

package planner

// Without assembly kernels the Go loops in packed.go are the whole path:
// useAVX2 stays false, so these stubs are never called.

func cpuHasAVX2() bool { return false }

const noKernels = "planner: no AVX2 kernels on this architecture"

func blendInAVX2(a, b, c, d *uint64, n int, m0, m2, m3 uint64) { panic(noKernels) }

func blendOutAVX2(a, b, c, d *uint64, n int, m0, m3 uint64) { panic(noKernels) }

func swapWordsAVX2(x, y *uint64, n int, m uint64) { panic(noKernels) }

func blendRangeAVX2(dst, src0, src1 *uint64, n int, d uint64) { panic(noKernels) }

func transpose64AVX2(a *[64]uint64) { panic(noKernels) }

func endsStageAVX2(v *uint64, nw, bw, pw, tp int) { panic(noKernels) }

func transpose16x4ColsAVX2(a *[16][64]uint64) { panic(noKernels) }
