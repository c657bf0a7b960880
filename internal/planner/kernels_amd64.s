#include "textflag.h"

// AVX2 forms of the packed runner's kernels (packed.go): the four
// plane-run kernels, the comparator-stage kernel and the bit-block
// transposes of the lane load and extract. Each computes its Go loop's
// XOR/AND expressions bit for bit. A plane-run kernel moves four plane
// words per instruction over one run of n words per operand, n a
// positive multiple of 4; a 4-word block is loaded whole before it is
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

// Masks are loaded with VPBROADCASTQ or VMOVDQU from memory (or VMOVQ
// from a general register), never with a legacy-encoded MOVQ r64, X: after
// a YMM write that one SSE instruction pays the SSE/AVX transition
// penalty on every call, which made a transpose three times slower than
// its Go loop.

// The bit-block transposes' butterfly masks: level j swaps the high-j
// bits of row k with the low-j bits of row k+j under mask m_j. Levels 2
// and 1 pair rows inside one 4-word vector, so their masks cover only
// the vector's first row of each pair (words 0,1 for j = 2; 0,2 for
// j = 1) and the partner row gets its bits by a word permute.
DATA tmask32<>+0(SB)/8, $0x00000000FFFFFFFF
GLOBL tmask32<>(SB), RODATA|NOPTR, $8
DATA tmask16<>+0(SB)/8, $0x0000FFFF0000FFFF
GLOBL tmask16<>(SB), RODATA|NOPTR, $8
DATA tmask8<>+0(SB)/8, $0x00FF00FF00FF00FF
GLOBL tmask8<>(SB), RODATA|NOPTR, $8
DATA tmask4<>+0(SB)/8, $0x0F0F0F0F0F0F0F0F
GLOBL tmask4<>(SB), RODATA|NOPTR, $8
DATA tmask2<>+0(SB)/8, $0x3333333333333333
DATA tmask2<>+8(SB)/8, $0x3333333333333333
DATA tmask2<>+16(SB)/8, $0
DATA tmask2<>+24(SB)/8, $0
GLOBL tmask2<>(SB), RODATA|NOPTR, $32
DATA tmask1<>+0(SB)/8, $0x5555555555555555
DATA tmask1<>+8(SB)/8, $0
DATA tmask1<>+16(SB)/8, $0x5555555555555555
DATA tmask1<>+24(SB)/8, $0
GLOBL tmask1<>(SB), RODATA|NOPTR, $32

DATA tmask2w<>+0(SB)/8, $0x3333333333333333
GLOBL tmask2w<>(SB), RODATA|NOPTR, $8
DATA tmask1w<>+0(SB)/8, $0x5555555555555555
GLOBL tmask1w<>(SB), RODATA|NOPTR, $8

// BFLY is one butterfly level between two 4-row vectors a (rows k..k+3)
// and b (rows k+j..k+j+3), with temporary t:
// t = ((a >> j) ^ b) & m; a ^= t << j; b ^= t.
#define BFLY(j, m, a, b, t) \
	VPSRLQ $j, a, t; \
	VPXOR  b, t, t; \
	VPAND  m, t, t; \
	VPXOR  t, b, b; \
	VPSLLQ $j, t, t; \
	VPXOR  t, a, a

// BFLY2 is level 2 inside one vector v = rows (r0, r1, r2, r3): pairs
// (r0, r2) and (r1, r3), the partner rows reached by swapping the
// vector's 128-bit halves.
#define BFLY2(v) \
	VPERMQ $0x4E, v, Y15; \
	VPSRLQ $2, v, Y14; \
	VPXOR  Y15, Y14, Y14; \
	VPAND  Y12, Y14, Y14; \
	VPERMQ $0x4E, Y14, Y15; \
	VPXOR  Y15, v, v; \
	VPSLLQ $2, Y14, Y14; \
	VPXOR  Y14, v, v

// BFLY1 is level 1 inside one vector: pairs (r0, r1) and (r2, r3), the
// partner rows reached by swapping the words of each 128-bit half.
#define BFLY1(v) \
	VPSHUFD $0x4E, v, Y15; \
	VPSRLQ  $1, v, Y14; \
	VPXOR   Y15, Y14, Y14; \
	VPAND   Y13, Y14, Y14; \
	VPSHUFD $0x4E, Y14, Y15; \
	VPXOR   Y15, v, v; \
	VPSLLQ  $1, Y14, Y14; \
	VPXOR   Y14, v, v

// BLOCK16 runs levels 8, 4, 2 and 1 over the 16 rows at p: the last
// four levels of Transpose64 on one 16-row block. Masks in Y10..Y13.
#define BLOCK16(p) \
	VMOVDQU 0(p), Y0; \
	VMOVDQU 32(p), Y1; \
	VMOVDQU 64(p), Y2; \
	VMOVDQU 96(p), Y3; \
	BFLY(8, Y10, Y0, Y2, Y14); \
	BFLY(8, Y10, Y1, Y3, Y14); \
	BFLY(4, Y11, Y0, Y1, Y14); \
	BFLY(4, Y11, Y2, Y3, Y14); \
	BFLY2(Y0); \
	BFLY2(Y1); \
	BFLY2(Y2); \
	BFLY2(Y3); \
	BFLY1(Y0); \
	BFLY1(Y1); \
	BFLY1(Y2); \
	BFLY1(Y3); \
	VMOVDQU Y0, 0(p); \
	VMOVDQU Y1, 32(p); \
	VMOVDQU Y2, 64(p); \
	VMOVDQU Y3, 96(p)

// COLBFLY8 runs level 8 between row a (in a register) and the row
// 4096 bytes (8 rows) past off(AX), which it loads and stores back.
#define COLBFLY8(off, a) \
	VMOVDQU off+4096(AX), Y8; \
	BFLY(8, Y12, a, Y8, Y11); \
	VMOVDQU Y8, off+4096(AX)

// COLS8 runs levels 4, 2 and 1 over eight rows held in registers.
#define COLS8(r0, r1, r2, r3, r4, r5, r6, r7) \
	BFLY(4, Y13, r0, r4, Y11); \
	BFLY(4, Y13, r1, r5, Y11); \
	BFLY(4, Y13, r2, r6, Y11); \
	BFLY(4, Y13, r3, r7, Y11); \
	BFLY(2, Y14, r0, r2, Y11); \
	BFLY(2, Y14, r1, r3, Y11); \
	BFLY(2, Y14, r4, r6, Y11); \
	BFLY(2, Y14, r5, r7, Y11); \
	BFLY(1, Y15, r0, r1, Y11); \
	BFLY(1, Y15, r2, r3, Y11); \
	BFLY(1, Y15, r4, r5, Y11); \
	BFLY(1, Y15, r6, r7, Y11)

// func transpose64AVX2(a *[64]uint64)
TEXT ·transpose64AVX2(SB), NOSPLIT, $0-8
	MOVQ         a+0(FP), AX
	VPBROADCASTQ tmask32<>(SB), Y8
	VPBROADCASTQ tmask16<>(SB), Y9
	VPBROADCASTQ tmask8<>(SB), Y10
	VPBROADCASTQ tmask4<>(SB), Y11
	VMOVDQU      tmask2<>(SB), Y12
	VMOVDQU      tmask1<>(SB), Y13

	// Levels 32 and 16: rows 4g.., 16+4g.., 32+4g.., 48+4g.. for each of
	// the four g close under both levels.
	MOVQ AX, DI
	MOVQ $4, CX

t64outer:
	VMOVDQU 0(DI), Y0
	VMOVDQU 128(DI), Y1
	VMOVDQU 256(DI), Y2
	VMOVDQU 384(DI), Y3
	BFLY(32, Y8, Y0, Y2, Y14)
	BFLY(32, Y8, Y1, Y3, Y14)
	BFLY(16, Y9, Y0, Y1, Y14)
	BFLY(16, Y9, Y2, Y3, Y14)
	VMOVDQU Y0, 0(DI)
	VMOVDQU Y1, 128(DI)
	VMOVDQU Y2, 256(DI)
	VMOVDQU Y3, 384(DI)
	ADDQ    $32, DI
	DECQ    CX
	JNZ     t64outer

	// Levels 8..1 inside each 16-row block.
	MOVQ AX, DI
	MOVQ $4, CX

t64inner:
	BLOCK16(DI)
	ADDQ $128, DI
	DECQ CX
	JNZ  t64inner
	VZEROUPPER
	RET

// func endsStageAVX2(v *uint64, nw, bw, pw, tp int)
//
// One comparator stage over the nw plane words at v, cut into blocks of
// bw = bs·pw words: in every block, packet i (pw words) and packet
// bs−1−i exchange on the lanes whose tag words (word tp of each packet)
// order as (1, 0). The tag test runs in scalar registers; a pair some
// lane exchanges swaps its packets under one broadcast mask, four words
// per instruction and the 0–3-word tail one word at a time. nw is a
// positive multiple of bw, bs ≥ 2 and 0 ≤ tp < pw (Program.Compile and
// the Go wrapper check both).
TEXT ·endsStageAVX2(SB), NOSPLIT, $0-40
	MOVQ v+0(FP), AX   // block start
	MOVQ nw+8(FP), CX
	LEAQ (AX)(CX*8), CX // window end
	MOVQ bw+16(FP), DX
	SHLQ $3, DX         // block bytes
	MOVQ pw+24(FP), SI
	SHLQ $3, SI         // packet bytes
	MOVQ tp+32(FP), R8
	SHLQ $3, R8         // tag word offset
	MOVQ SI, R9
	ANDQ $-32, R9       // packet bytes moved four words at a time

stageBlock:
	MOVQ AX, R10        // x: first packet of the block
	LEAQ (AX)(DX*1), R11
	SUBQ SI, R11        // y: last packet of the block

stagePair:
	MOVQ (R11)(R8*1), R13
	NOTQ R13
	ANDQ (R10)(R8*1), R13 // m = tag(x) &^ tag(y)
	JZ   stageNext
	VMOVQ        R13, X0
	VPBROADCASTQ X0, Y0
	XORQ         DI, DI

stageVec:
	CMPQ    DI, R9
	JGE     stageTail
	VMOVDQU (R10)(DI*1), Y1
	VMOVDQU (R11)(DI*1), Y2
	VPXOR   Y1, Y2, Y3      // t = (x^y)&m
	VPAND   Y0, Y3, Y3
	VPXOR   Y3, Y1, Y1
	VPXOR   Y3, Y2, Y2
	VMOVDQU Y1, (R10)(DI*1)
	VMOVDQU Y2, (R11)(DI*1)
	ADDQ    $32, DI
	JMP     stageVec

stageTail:
	CMPQ DI, SI
	JGE  stageNext
	MOVQ (R10)(DI*1), BX
	MOVQ (R11)(DI*1), R12
	MOVQ BX, R14
	XORQ R12, R14
	ANDQ R13, R14
	XORQ R14, BX
	XORQ R14, R12
	MOVQ BX, (R10)(DI*1)
	MOVQ R12, (R11)(DI*1)
	ADDQ $8, DI
	JMP  stageTail

stageNext:
	ADDQ SI, R10
	SUBQ SI, R11
	CMPQ R10, R11
	JLT  stagePair
	ADDQ DX, AX
	CMPQ AX, CX
	JLT  stageBlock
	VZEROUPPER
	RET

// func transpose16x4ColsAVX2(a *[16][64]uint64)
TEXT ·transpose16x4ColsAVX2(SB), NOSPLIT, $0-8
	MOVQ         a+0(FP), AX
	VPBROADCASTQ tmask8<>(SB), Y12
	VPBROADCASTQ tmask4<>(SB), Y13
	VPBROADCASTQ tmask2w<>(SB), Y14
	VPBROADCASTQ tmask1w<>(SB), Y15
	MOVQ         $16, CX

colsLoop:
	// Level 8 between rows k and k+8, the upper rows kept in registers.
	VMOVDQU 0(AX), Y0
	VMOVDQU 512(AX), Y1
	VMOVDQU 1024(AX), Y2
	VMOVDQU 1536(AX), Y3
	VMOVDQU 2048(AX), Y4
	VMOVDQU 2560(AX), Y5
	VMOVDQU 3072(AX), Y6
	VMOVDQU 3584(AX), Y7
	COLBFLY8(0, Y0)
	COLBFLY8(512, Y1)
	COLBFLY8(1024, Y2)
	COLBFLY8(1536, Y3)
	COLBFLY8(2048, Y4)
	COLBFLY8(2560, Y5)
	COLBFLY8(3072, Y6)
	COLBFLY8(3584, Y7)
	COLS8(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
	VMOVDQU Y0, 0(AX)
	VMOVDQU Y1, 512(AX)
	VMOVDQU Y2, 1024(AX)
	VMOVDQU Y3, 1536(AX)
	VMOVDQU Y4, 2048(AX)
	VMOVDQU Y5, 2560(AX)
	VMOVDQU Y6, 3072(AX)
	VMOVDQU Y7, 3584(AX)

	// Levels 4, 2 and 1 on rows 8..15.
	VMOVDQU 4096(AX), Y0
	VMOVDQU 4608(AX), Y1
	VMOVDQU 5120(AX), Y2
	VMOVDQU 5632(AX), Y3
	VMOVDQU 6144(AX), Y4
	VMOVDQU 6656(AX), Y5
	VMOVDQU 7168(AX), Y6
	VMOVDQU 7680(AX), Y7
	COLS8(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
	VMOVDQU Y0, 4096(AX)
	VMOVDQU Y1, 4608(AX)
	VMOVDQU Y2, 5120(AX)
	VMOVDQU Y3, 5632(AX)
	VMOVDQU Y4, 6144(AX)
	VMOVDQU Y5, 6656(AX)
	VMOVDQU Y6, 7168(AX)
	VMOVDQU Y7, 7680(AX)

	ADDQ $32, AX
	DECQ CX
	JNZ  colsLoop
	VZEROUPPER
	RET
