#include "textflag.h"

// AVX2 forms of the packed runner's plane-run kernels (packed.go). Each
// moves four plane words per instruction over one run of n words per
// operand, n a positive multiple of 4, computing its Go loop's XOR/AND
// expressions bit for bit. A 4-word block is loaded whole before it is
// stored, which matches the Go loop's word-at-a-time order because the
// runs never overlap.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func blendInAVX2(a, b, c, d *uint64, n int, m0, m2, m3 uint64)
TEXT ·blendInAVX2(SB), NOSPLIT, $0-64
	MOVQ a+0(FP), AX
	MOVQ b+8(FP), BX
	MOVQ c+16(FP), CX
	MOVQ d+24(FP), DX
	MOVQ n+32(FP), SI
	VPBROADCASTQ m0+40(FP), Y0
	VPBROADCASTQ m2+48(FP), Y1
	VPBROADCASTQ m3+56(FP), Y2
	VPOR         Y0, Y1, Y3 // m02
	XORQ         DI, DI

blendInLoop:
	VMOVDQU (AX)(DI*8), Y4 // a
	VMOVDQU (BX)(DI*8), Y5 // b
	VMOVDQU (CX)(DI*8), Y6 // c
	VMOVDQU (DX)(DI*8), Y7 // d
	VPXOR   Y4, Y6, Y8     // (a^c)&m2, shared by a' and c'
	VPAND   Y1, Y8, Y8
	VPXOR   Y4, Y5, Y9     // (a^b)&m3, shared by a' and b'
	VPAND   Y2, Y9, Y9

	// a' = a ^ (a^c)&m2 ^ (a^b)&m3
	VPXOR Y4, Y8, Y10
	VPXOR Y9, Y10, Y10

	// b' = b ^ (b^d)&m02 ^ (b^a)&m3
	VPXOR Y5, Y7, Y11
	VPAND Y3, Y11, Y11
	VPXOR Y5, Y11, Y11
	VPXOR Y9, Y11, Y11

	// c' = c ^ (c^b)&m0 ^ (c^a)&m2
	VPXOR Y6, Y5, Y12
	VPAND Y0, Y12, Y12
	VPXOR Y6, Y12, Y12
	VPXOR Y8, Y12, Y12

	// d' = d ^ (d^c)&m0 ^ (d^b)&m2
	VPXOR Y7, Y6, Y13
	VPAND Y0, Y13, Y13
	VPXOR Y7, Y5, Y14
	VPAND Y1, Y14, Y14
	VPXOR Y7, Y13, Y13
	VPXOR Y14, Y13, Y13

	VMOVDQU Y10, (AX)(DI*8)
	VMOVDQU Y11, (BX)(DI*8)
	VMOVDQU Y12, (CX)(DI*8)
	VMOVDQU Y13, (DX)(DI*8)
	ADDQ    $4, DI
	CMPQ    DI, SI
	JLT     blendInLoop
	VZEROUPPER
	RET

// func blendOutAVX2(a, b, c, d *uint64, n int, m0, m3 uint64)
TEXT ·blendOutAVX2(SB), NOSPLIT, $0-56
	MOVQ a+0(FP), AX
	MOVQ b+8(FP), BX
	MOVQ c+16(FP), CX
	MOVQ d+24(FP), DX
	MOVQ n+32(FP), SI
	VPBROADCASTQ m0+40(FP), Y0
	VPBROADCASTQ m3+48(FP), Y2
	XORQ         DI, DI

blendOutLoop:
	VMOVDQU (AX)(DI*8), Y4 // a
	VMOVDQU (BX)(DI*8), Y5 // b
	VMOVDQU (CX)(DI*8), Y6 // c
	VMOVDQU (DX)(DI*8), Y7 // d

	// a' = a ^ (a^b)&m3
	VPXOR Y4, Y5, Y10
	VPAND Y2, Y10, Y10
	VPXOR Y4, Y10, Y10

	// b' = b ^ (b^d)&m0 ^ (b^c)&m3
	VPXOR Y5, Y7, Y11
	VPAND Y0, Y11, Y11
	VPXOR Y5, Y6, Y8
	VPAND Y2, Y8, Y8
	VPXOR Y5, Y11, Y11
	VPXOR Y8, Y11, Y11

	// c' = c ^ (c^b)&m0 ^ (c^a)&m3
	VPXOR Y6, Y5, Y12
	VPAND Y0, Y12, Y12
	VPXOR Y6, Y4, Y9
	VPAND Y2, Y9, Y9
	VPXOR Y6, Y12, Y12
	VPXOR Y9, Y12, Y12

	// d' = d ^ (d^c)&m0
	VPXOR Y7, Y6, Y13
	VPAND Y0, Y13, Y13
	VPXOR Y7, Y13, Y13

	VMOVDQU Y10, (AX)(DI*8)
	VMOVDQU Y11, (BX)(DI*8)
	VMOVDQU Y12, (CX)(DI*8)
	VMOVDQU Y13, (DX)(DI*8)
	ADDQ    $4, DI
	CMPQ    DI, SI
	JLT     blendOutLoop
	VZEROUPPER
	RET

// func swapWordsAVX2(x, y *uint64, n int, m uint64)
TEXT ·swapWordsAVX2(SB), NOSPLIT, $0-32
	MOVQ x+0(FP), AX
	MOVQ y+8(FP), BX
	MOVQ n+16(FP), SI
	VPBROADCASTQ m+24(FP), Y0
	XORQ         DI, DI

swapLoop:
	VMOVDQU (AX)(DI*8), Y4
	VMOVDQU (BX)(DI*8), Y5
	VPXOR   Y4, Y5, Y6     // t = (x^y)&m
	VPAND   Y0, Y6, Y6
	VPXOR   Y4, Y6, Y4
	VPXOR   Y5, Y6, Y5
	VMOVDQU Y4, (AX)(DI*8)
	VMOVDQU Y5, (BX)(DI*8)
	ADDQ    $4, DI
	CMPQ    DI, SI
	JLT     swapLoop
	VZEROUPPER
	RET

// func blendRangeAVX2(dst, src0, src1 *uint64, n int, d uint64)
TEXT ·blendRangeAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), AX
	MOVQ src0+8(FP), BX
	MOVQ src1+16(FP), CX
	MOVQ n+24(FP), SI
	VPBROADCASTQ d+32(FP), Y0
	XORQ         DI, DI

blendRangeLoop:
	VMOVDQU (BX)(DI*8), Y4 // a = src0
	VMOVDQU (CX)(DI*8), Y5
	VPXOR   Y4, Y5, Y5     // a ^ ((a^src1)&d)
	VPAND   Y0, Y5, Y5
	VPXOR   Y4, Y5, Y5
	VMOVDQU Y5, (AX)(DI*8)
	ADDQ    $4, DI
	CMPQ    DI, SI
	JLT     blendRangeLoop
	VZEROUPPER
	RET
