#include "textflag.h"

// AVX2 row kernels for mulAddRows (see kernel_amd64.go), four columns to a
// YMM register, the last one to three through a masked YMM register, and a
// one-column product four rows to a register. Every
// instruction is VEX-encoded and every function ends in VZEROUPPER, so no
// legacy SSE instruction meets a dirty upper half.
//
// Registers: DI o, SI a, DX b, CX the k count, R8 a's stride and R9 b's row
// stride in bytes. Y0–Y3 hold o's column groups across the k loop, Y8 the
// broadcast a[k·as], X10 zero, Y9 and Y11–Y13 products.
//
// Per k and column group the product is formed in the register holding b
// (VMULPD Y8, t, t: b·a) and added into the accumulator (VADDPD t, acc,
// acc), no fused multiply-add, so where both operands are NaN the first
// source's payload survives: b's in a product, the accumulator's in a sum,
// as in the scalar loop.

#define ARGS \
	MOVQ o+0(FP), DI; \
	MOVQ a+8(FP), SI; \
	MOVQ b+16(FP), DX; \
	MOVQ K+24(FP), CX; \
	MOVQ as+32(FP), R8; \
	MOVQ n+40(FP), R9; \
	SHLQ $3, R8; \
	SHLQ $3, R9; \
	VXORPD X10, X10, X10

// LOADA loads a[k·as] into X8 and jumps to next when it compares equal to
// zero (ZF set, PF clear: ±0); an unordered compare (NaN) falls through.
#define LOADA \
	VMOVSD (SI), X8; \
	VUCOMISD X10, X8; \
	JNE mul; \
	JPC next; \

#define MADD(off, t, acc) \
	VMOVUPD off(DX), t; \
	VMULPD Y8, t, t; \
	VADDPD t, acc, acc

#define STEP \
	ADDQ R8, SI; \
	ADDQ R9, DX; \
	DECQ CX; \
	JNZ loop

// func rowMulAdd16(o, a, b *float64, K, as, n int)
TEXT ·rowMulAdd16(SB), NOSPLIT, $0-48
	ARGS
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3

loop:
	LOADA

mul:
	VBROADCASTSD X8, Y8
	MADD(0, Y9, Y0)
	MADD(32, Y11, Y1)
	MADD(64, Y12, Y2)
	MADD(96, Y13, Y3)

next:
	STEP
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	RET

// func rowMulAdd8(o, a, b *float64, K, as, n int)
TEXT ·rowMulAdd8(SB), NOSPLIT, $0-48
	ARGS
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1

loop:
	LOADA

mul:
	VBROADCASTSD X8, Y8
	MADD(0, Y9, Y0)
	MADD(32, Y11, Y1)

next:
	STEP
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VZEROUPPER
	RET

// func rowMulAdd4(o, a, b *float64, K, as, n int)
TEXT ·rowMulAdd4(SB), NOSPLIT, $0-48
	ARGS
	VMOVUPD 0(DI), Y0

loop:
	LOADA

mul:
	VBROADCASTSD X8, Y8
	MADD(0, Y9, Y0)

next:
	STEP
	VMOVUPD Y0, 0(DI)
	VZEROUPPER
	RET

// func rowMulAddMasked(o, a, b *float64, K, as, n int, mask *uint64)
//
// The 4-wide kernel on the lanes mask selects (the first one, two or three):
// VMASKMOVPD neither reads nor writes the others, in o or in b.
TEXT ·rowMulAddMasked(SB), NOSPLIT, $0-56
	ARGS
	MOVQ mask+48(FP), AX
	VMOVDQU (AX), Y14
	VMASKMOVPD (DI), Y14, Y0

loop:
	LOADA

mul:
	VBROADCASTSD X8, Y8
	VMASKMOVPD (DX), Y14, Y9
	VMULPD Y8, Y9, Y9
	VADDPD Y9, Y0, Y0

next:
	STEP
	VMASKMOVPD Y0, Y14, (DI)
	VZEROUPPER
	RET

// func colMulAdd4(o, a, b *float64, K, as, ai int)
//
// A one-column product four rows at a time: o[r] += Σ_{k<K} A[r][k]·b[k]
// for r < 4, A[r][k] = a[r·ai + k·as]. The four rows' A[r][k] are gathered
// into one register, each lane adds its product in ascending k, and a lane
// whose A[r][k] is zero keeps its sum (VBLENDVPD on a not-equal-or-unordered
// compare, so a NaN is not skipped), as the row kernels skip it.
TEXT ·colMulAdd4(SB), NOSPLIT, $0-48
	ARGS
	MOVQ ai+40(FP), R10
	SHLQ $3, R10
	VMOVUPD (DI), Y0
	VXORPD Y10, Y10, Y10

loop:
	LEAQ (SI)(R10*2), AX
	VMOVSD (SI), X8
	VMOVHPD (SI)(R10*1), X8, X8
	VMOVSD (AX), X11
	VMOVHPD (AX)(R10*1), X11, X11
	VINSERTF128 $1, X11, Y8, Y8
	VCMPPD $4, Y10, Y8, Y12
	VBROADCASTSD (DX), Y9
	VMULPD Y8, Y9, Y9
	VADDPD Y9, Y0, Y13
	VBLENDVPD Y12, Y13, Y0, Y0
	ADDQ R8, SI
	ADDQ $8, DX
	DECQ CX
	JNZ loop
	VMOVUPD Y0, (DI)
	VZEROUPPER
	RET
