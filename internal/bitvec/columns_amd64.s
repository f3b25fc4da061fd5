#include "textflag.h"

// The AVX2 column kernel: sumColumn and unpackPlanes of columns.go run on
// four word columns at once, one 64-bit lane each. Every step below is a
// lane-wise twin of a line of the scalar kernel, so the two agree bit for
// bit.

// CSA is csa of columns.go on four lanes: a, carry = a^b^c, majority(a, b, c).
// t is clobbered; carry must be none of a, b and c.
#define CSA(a, b, c, carry, t) \
	VPXOR b, a, t;     \
	VPAND b, a, carry; \
	VPXOR c, t, a;     \
	VPAND c, t, t;     \
	VPOR  t, carry, carry

// LOAD2 loads the four-column words of rows i and j of the offset list at SI
// from the column region at DX into Y8 and Y9.
#define LOAD2(i, j) \
	MOVQ    (i*8)(SI), R8;    \
	MOVQ    (j*8)(SI), R9;    \
	VMOVDQU (DX)(R8*1), Y8; \
	VMOVDQU (DX)(R9*1), Y9

// SWAP is swapHigh on four lanes, with the mask in Y8; Y9 is clobbered.
#define SWAP(a, b, shift) \
	VPSRLQ $shift, a, Y9; \
	VPXOR  b, Y9, Y9;     \
	VPAND  Y8, Y9, Y9;    \
	VPXOR  Y9, b, b;      \
	VPSLLQ $shift, Y9, Y9; \
	VPXOR  Y9, a, a

// DELTA is one bit round of unpackPlanes on four lanes:
// t = (x ^ x>>shift) & mask; x ^= t ^ t<<shift. Y11 and Y12 are clobbered.
#define DELTA(x, shift, mask) \
	VPSRLQ $shift, x, Y11;    \
	VPXOR  x, Y11, Y11;       \
	VPAND  mask, Y11, Y11;    \
	VPSLLQ $shift, Y11, Y12;  \
	VPXOR  Y11, x, x;         \
	VPXOR  Y12, x, x

// BITS runs the three bit rounds on x, masks in Y8, Y9 and Y10.
#define BITS(x) \
	DELTA(x, 7, Y8);  \
	DELTA(x, 14, Y9); \
	DELTA(x, 28, Y10)

// ADD8 adds the eight byte-wide sums of one lane at (j*32)(SI) — positions
// 8j to 8j+7 of its column — into the column's counters at DI.
#define ADD8(j) \
	VPMOVZXBQ (j*32)(SI), Y8;     \
	VPMOVZXBQ (j*32+4)(SI), Y9;   \
	VPADDQ    (j*64)(DI), Y8, Y8; \
	VPADDQ    (j*64+32)(DI), Y9, Y9; \
	VMOVDQU   Y8, (j*64)(DI);     \
	VMOVDQU   Y9, (j*64+32)(DI)

// The unpack masks of unpackPlanes: three byte rounds, then three bit rounds.
DATA masks<>+0(SB)/8, $0x00ff00ff00ff00ff
DATA masks<>+8(SB)/8, $0x0000ffff0000ffff
DATA masks<>+16(SB)/8, $0x00000000ffffffff
DATA masks<>+24(SB)/8, $0x00aa00aa00aa00aa
DATA masks<>+32(SB)/8, $0x0000cccc0000cccc
DATA masks<>+40(SB)/8, $0x00000000f0f0f0f0
GLOBL masks<>(SB), RODATA|NOPTR, $48

// func addColumns4(counts *int64, col *byte, offs []int)
//
// Planes 0 to 7 live in Y0 to Y7 throughout: the running ones, twos, fours
// and eights of sumColumn, then the four planes sixteens ripple into. The
// sixteen-row tree's partial sums take Y11 to Y15, its loaded rows Y8 and
// Y9, and Y10 is every CSA's scratch. The 256-byte frame holds the
// transposed planes while their bytes are widened into the counters.
TEXT ·addColumns4(SB), NOSPLIT, $256-40
	MOVQ counts+0(FP), DI
	MOVQ col+8(FP), DX
	MOVQ offs_base+16(FP), SI
	MOVQ offs_len+24(FP), CX

	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7

	// The first len(offs)%16 rows ripple into ones to eights one at a time.
	MOVQ CX, BX
	ANDQ $15, BX
	JZ   trees

head:
	MOVQ    (SI), R8
	VMOVDQU (DX)(R8*1), Y8
	VPAND   Y8, Y0, Y9
	VPXOR   Y8, Y0, Y0
	VPAND   Y9, Y1, Y8
	VPXOR   Y9, Y1, Y1
	VPAND   Y8, Y2, Y9
	VPXOR   Y8, Y2, Y2
	VPXOR   Y9, Y3, Y3
	ADDQ    $8, SI
	DECQ    BX
	JNZ     head

trees:
	SHRQ $4, CX
	JZ   unpack

tree:
	LOAD2(0, 1)
	CSA(Y0, Y8, Y9, Y11, Y10)
	LOAD2(2, 3)
	CSA(Y0, Y8, Y9, Y12, Y10)
	CSA(Y1, Y11, Y12, Y13, Y10)
	LOAD2(4, 5)
	CSA(Y0, Y8, Y9, Y11, Y10)
	LOAD2(6, 7)
	CSA(Y0, Y8, Y9, Y12, Y10)
	CSA(Y1, Y11, Y12, Y14, Y10)
	CSA(Y2, Y13, Y14, Y15, Y10)
	LOAD2(8, 9)
	CSA(Y0, Y8, Y9, Y11, Y10)
	LOAD2(10, 11)
	CSA(Y0, Y8, Y9, Y12, Y10)
	CSA(Y1, Y11, Y12, Y13, Y10)
	LOAD2(12, 13)
	CSA(Y0, Y8, Y9, Y11, Y10)
	LOAD2(14, 15)
	CSA(Y0, Y8, Y9, Y12, Y10)
	CSA(Y1, Y11, Y12, Y14, Y10)
	CSA(Y2, Y13, Y14, Y11, Y10)
	CSA(Y3, Y15, Y11, Y12, Y10)

	// Y12 is the tree's sixteens: ripple it through planes 4 to 7. A pass
	// is at most 240 rows, so nothing carries out of plane 7.
	VPAND Y12, Y4, Y10
	VPXOR Y12, Y4, Y4
	VPAND Y10, Y5, Y12
	VPXOR Y10, Y5, Y5
	VPAND Y12, Y6, Y10
	VPXOR Y12, Y6, Y6
	VPXOR Y10, Y7, Y7

	ADDQ $128, SI
	DECQ CX
	JNZ  tree

unpack:
	// The byte rounds of unpackPlanes.
	VPBROADCASTQ masks<>+0(SB), Y8
	SWAP(Y0, Y1, 8)
	SWAP(Y2, Y3, 8)
	SWAP(Y4, Y5, 8)
	SWAP(Y6, Y7, 8)
	VPBROADCASTQ masks<>+8(SB), Y8
	SWAP(Y0, Y2, 16)
	SWAP(Y1, Y3, 16)
	SWAP(Y4, Y6, 16)
	SWAP(Y5, Y7, 16)
	VPBROADCASTQ masks<>+16(SB), Y8
	SWAP(Y0, Y4, 32)
	SWAP(Y1, Y5, 32)
	SWAP(Y2, Y6, 32)
	SWAP(Y3, Y7, 32)

	// The bit rounds: after them, byte m of lane c of Yj is the sum at
	// position 8j+m of column c.
	VPBROADCASTQ masks<>+24(SB), Y8
	VPBROADCASTQ masks<>+32(SB), Y9
	VPBROADCASTQ masks<>+40(SB), Y10
	BITS(Y0)
	BITS(Y1)
	BITS(Y2)
	BITS(Y3)
	BITS(Y4)
	BITS(Y5)
	BITS(Y6)
	BITS(Y7)

	VMOVDQU Y0, 0(SP)
	VMOVDQU Y1, 32(SP)
	VMOVDQU Y2, 64(SP)
	VMOVDQU Y3, 96(SP)
	VMOVDQU Y4, 128(SP)
	VMOVDQU Y5, 160(SP)
	VMOVDQU Y6, 192(SP)
	VMOVDQU Y7, 224(SP)

	// Column c's sums are the eight bytes at 8c+32j of the frame, j = 0 to 7;
	// its 64 counters start at byte 512c of counts.
	LEAQ 0(SP), SI
	MOVQ $4, CX

lane:
	ADD8(0)
	ADD8(1)
	ADD8(2)
	ADD8(3)
	ADD8(4)
	ADD8(5)
	ADD8(6)
	ADD8(7)
	ADDQ $8, SI
	ADDQ $512, DI
	DECQ CX
	JNZ  lane

	VZEROUPPER
	RET

// func hasAVX2() bool
//
// CPUID says the processor has AVX and AVX2 and the OS uses XSAVE, and
// XGETBV says the OS saves the YMM registers across context switches.
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JCS  no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX // XMM and YMM state
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX // AVX2 is bit 5 of leaf 7's EBX
	ANDL $1, BX
	MOVB BX, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
