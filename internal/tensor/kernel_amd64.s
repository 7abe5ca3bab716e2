#include "textflag.h"

// SSE2 row kernels for mulAdd (see kernel_amd64.go). SSE2 is baseline amd64,
// so they need no feature check, and with no VEX encoding they carry no
// AVX/SSE transition cost.
//
// Registers: DI o, SI a, DX b, CX the k count, R8 a's stride and R9 b's row
// stride in bytes. X0–X7 hold o's column pairs across the k loop, X8 the
// broadcast a[k·as], X10 zero, X9 and X11 products.
//
// Per k and column pair the product is formed in the register holding b
// (MULPD X8, X9: b·a) and added into the accumulator (ADDPD X9, acc), the
// operand order of the scalar loop's MULSD and ADDSD, so where both operands
// are NaN the same payload survives.

#define ARGS \
	MOVQ o+0(FP), DI; \
	MOVQ a+8(FP), SI; \
	MOVQ b+16(FP), DX; \
	MOVQ K+24(FP), CX; \
	MOVQ as+32(FP), R8; \
	MOVQ n+40(FP), R9; \
	SHLQ $3, R8; \
	SHLQ $3, R9; \
	XORPD X10, X10

// LOADA broadcasts a[k·as] into X8 and jumps to next when it compares equal
// to zero (ZF set, PF clear: ±0); an unordered compare (NaN) falls through.
#define LOADA \
	MOVSD (SI), X8; \
	UCOMISD X10, X8; \
	JNE mul; \
	JPC next; \

#define MADD(off, t, acc) \
	MOVUPD off(DX), t; \
	MULPD X8, t; \
	ADDPD t, acc

#define STEP \
	ADDQ R8, SI; \
	ADDQ R9, DX; \
	DECQ CX; \
	JNZ loop

// func rowMulAdd16(o, a, b *float64, K, as, n int)
TEXT ·rowMulAdd16(SB), NOSPLIT, $0-48
	ARGS
	MOVUPD 0(DI), X0
	MOVUPD 16(DI), X1
	MOVUPD 32(DI), X2
	MOVUPD 48(DI), X3
	MOVUPD 64(DI), X4
	MOVUPD 80(DI), X5
	MOVUPD 96(DI), X6
	MOVUPD 112(DI), X7

loop:
	LOADA

mul:
	UNPCKLPD X8, X8
	MADD(0, X9, X0)
	MADD(16, X11, X1)
	MADD(32, X9, X2)
	MADD(48, X11, X3)
	MADD(64, X9, X4)
	MADD(80, X11, X5)
	MADD(96, X9, X6)
	MADD(112, X11, X7)

next:
	STEP
	MOVUPD X0, 0(DI)
	MOVUPD X1, 16(DI)
	MOVUPD X2, 32(DI)
	MOVUPD X3, 48(DI)
	MOVUPD X4, 64(DI)
	MOVUPD X5, 80(DI)
	MOVUPD X6, 96(DI)
	MOVUPD X7, 112(DI)
	RET

// func rowMulAdd8(o, a, b *float64, K, as, n int)
TEXT ·rowMulAdd8(SB), NOSPLIT, $0-48
	ARGS
	MOVUPD 0(DI), X0
	MOVUPD 16(DI), X1
	MOVUPD 32(DI), X2
	MOVUPD 48(DI), X3

loop:
	LOADA

mul:
	UNPCKLPD X8, X8
	MADD(0, X9, X0)
	MADD(16, X11, X1)
	MADD(32, X9, X2)
	MADD(48, X11, X3)

next:
	STEP
	MOVUPD X0, 0(DI)
	MOVUPD X1, 16(DI)
	MOVUPD X2, 32(DI)
	MOVUPD X3, 48(DI)
	RET

// func rowMulAdd4(o, a, b *float64, K, as, n int)
TEXT ·rowMulAdd4(SB), NOSPLIT, $0-48
	ARGS
	MOVUPD 0(DI), X0
	MOVUPD 16(DI), X1

loop:
	LOADA

mul:
	UNPCKLPD X8, X8
	MADD(0, X9, X0)
	MADD(16, X11, X1)

next:
	STEP
	MOVUPD X0, 0(DI)
	MOVUPD X1, 16(DI)
	RET

// func rowMulAdd2(o, a, b *float64, K, as, n int)
TEXT ·rowMulAdd2(SB), NOSPLIT, $0-48
	ARGS
	MOVUPD 0(DI), X0

loop:
	LOADA

mul:
	UNPCKLPD X8, X8
	MADD(0, X9, X0)

next:
	STEP
	MOVUPD X0, 0(DI)
	RET

// func rowMulAdd1(o, a, b *float64, K, as, n int)
TEXT ·rowMulAdd1(SB), NOSPLIT, $0-48
	ARGS
	MOVSD 0(DI), X0

loop:
	LOADA

mul:
	MOVSD 0(DX), X9
	MULSD X8, X9
	ADDSD X9, X0

next:
	STEP
	MOVSD X0, 0(DI)
	RET
