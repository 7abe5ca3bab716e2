#include "textflag.h"

// AVX2 element-wise kernels for elementwise.go, four elements to a YMM
// register and sixteen to a loop iteration, then the last n%4 one at a time
// in the XMM register's low lane. No fused multiply-add: every product is
// rounded before anything adds it, so each lane is the scalar loop's
// element. Where an operation meets two NaNs the first source operand's
// payload survives, so each kernel orders its sources as the scalar loop
// does (see the comment on each). Every instruction is VEX-encoded and every
// kernel ends in VZEROUPPER.
//
// Registers: DI dst, SI x, DX y, CX the count; Y8 a broadcast scalar, Y9
// the constant 1, Y0 and Y1 work.

// ELEMENTWISE runs Q(off) on the group of four elements off bytes past DI,
// SI and DX, sixteen elements an iteration while sixteen remain, then four,
// and S(off) on each of the last n%4 elements.
#define ELEMENTWISE(Q, S) \
	CMPQ CX, $16; \
	JLT quad; \
wide: \
	Q(0); \
	Q(32); \
	Q(64); \
	Q(96); \
	ADDQ $128, DI; \
	ADDQ $128, SI; \
	ADDQ $128, DX; \
	SUBQ $16, CX; \
	CMPQ CX, $16; \
	JGE wide; \
quad: \
	CMPQ CX, $4; \
	JLT single; \
	Q(0); \
	ADDQ $32, DI; \
	ADDQ $32, SI; \
	ADDQ $32, DX; \
	SUBQ $4, CX; \
	JMP quad; \
single: \
	TESTQ CX, CX; \
	JZ done; \
	S(0); \
	ADDQ $8, DI; \
	ADDQ $8, SI; \
	ADDQ $8, DX; \
	DECQ CX; \
	JMP single; \
done: \
	VZEROUPPER; \
	RET

// Arguments (dst, x, y *float64, n int).
#define ARGS3 \
	MOVQ dst+0(FP), DI; \
	MOVQ x+8(FP), SI; \
	MOVQ y+16(FP), DX; \
	MOVQ n+24(FP), CX

// Arguments (dst, x *float64, k float64, n int); k is broadcast to Y8.
#define ARGSK \
	MOVQ dst+0(FP), DI; \
	MOVQ x+8(FP), SI; \
	MOVQ SI, DX; \
	VBROADCASTSD k+16(FP), Y8; \
	MOVQ n+24(FP), CX

// ONE sets every lane of Y9 to 1.
#define ONE \
	MOVQ $0x3ff0000000000000, AX; \
	VMOVQ AX, X9; \
	VBROADCASTSD X9, Y9

// dst = x op y, x first: Add, AddInPlace, Sub, Hadamard, AddRowVector.
#define BINQ(op, off) VMOVUPD off(SI), Y0; op off(DX), Y0, Y0; VMOVUPD Y0, off(DI)
#define BINS(op, off) VMOVSD off(SI), X0; op off(DX), X0, X0; VMOVSD X0, off(DI)

#define ADDQ4(off) BINQ(VADDPD, off)
#define ADDS1(off) BINS(VADDSD, off)
#define SUBQ4(off) BINQ(VSUBPD, off)
#define SUBS1(off) BINS(VSUBSD, off)
#define MULQ4(off) BINQ(VMULPD, off)
#define MULS1(off) BINS(VMULSD, off)

// dst = x op k, x first: Scale's x·k, AddConst's x + k.
#define BINKQ(op, off) VMOVUPD off(SI), Y0; op Y8, Y0, Y0; VMOVUPD Y0, off(DI)
#define BINKS(op, off) VMOVSD off(SI), X0; op X8, X0, X0; VMOVSD X0, off(DI)

#define SCALEQ(off) BINKQ(VMULPD, off)
#define SCALES(off) BINKS(VMULSD, off)
#define ADDKQ(off) BINKQ(VADDPD, off)
#define ADDKS(off) BINKS(VADDSD, off)

// dst += x·y: the product x first, then dst + product, dst first, as
// Hadamard into a temporary and AddInPlace did.
#define MULACCQ(off) \
	VMOVUPD off(SI), Y0; \
	VMULPD off(DX), Y0, Y0; \
	VMOVUPD off(DI), Y1; \
	VADDPD Y0, Y1, Y1; \
	VMOVUPD Y1, off(DI)
#define MULACCS(off) \
	VMOVSD off(SI), X0; \
	VMULSD off(DX), X0, X0; \
	VMOVSD off(DI), X1; \
	VADDSD X0, X1, X1; \
	VMOVSD X1, off(DI)

// dst += x·k, as Scale into a temporary and AddInPlace did.
#define SCALEACCQ(off) \
	VMOVUPD off(SI), Y0; \
	VMULPD Y8, Y0, Y0; \
	VMOVUPD off(DI), Y1; \
	VADDPD Y0, Y1, Y1; \
	VMOVUPD Y1, off(DI)
#define SCALEACCS(off) \
	VMOVSD off(SI), X0; \
	VMULSD X8, X0, X0; \
	VMOVSD off(DI), X1; \
	VADDSD X0, X1, X1; \
	VMOVSD X1, off(DI)

// dst += (1 − t·t)·g with x = g and y = t: the tanh backward step, the
// difference first in the product and the product first in the sum.
#define TANHGRADQ(off) \
	VMOVUPD off(DX), Y0; \
	VMULPD Y0, Y0, Y0; \
	VSUBPD Y0, Y9, Y0; \
	VMULPD off(SI), Y0, Y0; \
	VADDPD off(DI), Y0, Y0; \
	VMOVUPD Y0, off(DI)
#define TANHGRADS(off) \
	VMOVSD off(DX), X0; \
	VMULSD X0, X0, X0; \
	VSUBSD X0, X9, X0; \
	VMULSD off(SI), X0, X0; \
	VADDSD off(DI), X0, X0; \
	VMOVSD X0, off(DI)

// dst += (1 − s)·(g·s) with x = g and y = s: the sigmoid backward step.
#define SIGMOIDGRADQ(off) \
	VMOVUPD off(SI), Y0; \
	VMOVUPD off(DX), Y1; \
	VMULPD Y1, Y0, Y0; \
	VSUBPD Y1, Y9, Y1; \
	VMULPD Y0, Y1, Y1; \
	VADDPD off(DI), Y1, Y1; \
	VMOVUPD Y1, off(DI)
#define SIGMOIDGRADS(off) \
	VMOVSD off(SI), X0; \
	VMOVSD off(DX), X1; \
	VMULSD X1, X0, X0; \
	VSUBSD X1, X9, X1; \
	VMULSD X0, X1, X1; \
	VADDSD off(DI), X1, X1; \
	VMOVSD X1, off(DI)

// func addAVX2(dst, x, y *float64, n int)
TEXT ·addAVX2(SB), NOSPLIT, $0-32
	ARGS3
	ELEMENTWISE(ADDQ4, ADDS1)

// func subAVX2(dst, x, y *float64, n int)
TEXT ·subAVX2(SB), NOSPLIT, $0-32
	ARGS3
	ELEMENTWISE(SUBQ4, SUBS1)

// func mulAVX2(dst, x, y *float64, n int)
TEXT ·mulAVX2(SB), NOSPLIT, $0-32
	ARGS3
	ELEMENTWISE(MULQ4, MULS1)

// func mulAccAVX2(dst, x, y *float64, n int)
TEXT ·mulAccAVX2(SB), NOSPLIT, $0-32
	ARGS3
	ELEMENTWISE(MULACCQ, MULACCS)

// func tanhGradAVX2(dst, x, y *float64, n int)
TEXT ·tanhGradAVX2(SB), NOSPLIT, $0-32
	ARGS3
	ONE
	ELEMENTWISE(TANHGRADQ, TANHGRADS)

// func sigmoidGradAVX2(dst, x, y *float64, n int)
TEXT ·sigmoidGradAVX2(SB), NOSPLIT, $0-32
	ARGS3
	ONE
	ELEMENTWISE(SIGMOIDGRADQ, SIGMOIDGRADS)

// func scaleAVX2(dst, x *float64, k float64, n int)
TEXT ·scaleAVX2(SB), NOSPLIT, $0-32
	ARGSK
	ELEMENTWISE(SCALEQ, SCALES)

// func addConstAVX2(dst, x *float64, k float64, n int)
TEXT ·addConstAVX2(SB), NOSPLIT, $0-32
	ARGSK
	ELEMENTWISE(ADDKQ, ADDKS)

// func scaleAccAVX2(dst, x *float64, k float64, n int)
TEXT ·scaleAccAVX2(SB), NOSPLIT, $0-32
	ARGSK
	ELEMENTWISE(SCALEACCQ, SCALEACCS)

// One Adam update of four elements (Q) or one (S), DI the parameters, SI
// m, DX v and BX g; Y7–Y15 hold β1, 1−β1, β2, 1−β2, the two bias
// corrections, the learning rate, ε and the decay, and R9 is non-zero when
// the decay applies. The sources are in the order of the scalar loop it
// replaces (nn.Adam.Step):
//
//	m' = (1−β1)·g + m·β1
//	v' = g·((1−β2)·g) + v·β2
//	θ' = θ − (m'/c1)·lr / (√(v'/c2) + ε)
//	θ' = θ' − decay·θ'  (when the decay applies)
#define ADAMQ(off) \
	VMOVUPD off(BX), Y0; \
	VMULPD Y0, Y8, Y1; \
	VMOVUPD off(SI), Y2; \
	VMULPD Y7, Y2, Y2; \
	VADDPD Y2, Y1, Y1; \
	VMOVUPD Y1, off(SI); \
	VMULPD Y0, Y10, Y2; \
	VMULPD Y2, Y0, Y2; \
	VMOVUPD off(DX), Y3; \
	VMULPD Y9, Y3, Y3; \
	VADDPD Y3, Y2, Y2; \
	VMOVUPD Y2, off(DX); \
	VDIVPD Y11, Y1, Y1; \
	VDIVPD Y12, Y2, Y2; \
	VMULPD Y13, Y1, Y1; \
	VSQRTPD Y2, Y2; \
	VADDPD Y14, Y2, Y2; \
	VDIVPD Y2, Y1, Y1; \
	VMOVUPD off(DI), Y3; \
	VSUBPD Y1, Y3, Y3; \
	VMULPD Y3, Y15, Y4; \
	VSUBPD Y4, Y3, Y4; \
	TESTQ R9, R9; \
	JZ 2(PC); \
	VMOVAPD Y4, Y3; \
	VMOVUPD Y3, off(DI)
#define ADAMS(off) \
	VMOVSD off(BX), X0; \
	VMULSD X0, X8, X1; \
	VMOVSD off(SI), X2; \
	VMULSD X7, X2, X2; \
	VADDSD X2, X1, X1; \
	VMOVSD X1, off(SI); \
	VMULSD X0, X10, X2; \
	VMULSD X2, X0, X2; \
	VMOVSD off(DX), X3; \
	VMULSD X9, X3, X3; \
	VADDSD X3, X2, X2; \
	VMOVSD X2, off(DX); \
	VDIVSD X11, X1, X1; \
	VDIVSD X12, X2, X2; \
	VMULSD X13, X1, X1; \
	VSQRTSD X2, X2, X2; \
	VADDSD X14, X2, X2; \
	VDIVSD X2, X1, X1; \
	VMOVSD off(DI), X3; \
	VSUBSD X1, X3, X3; \
	VMULSD X3, X15, X4; \
	VSUBSD X4, X3, X4; \
	TESTQ R9, R9; \
	JZ 2(PC); \
	VMOVAPD X4, X3; \
	VMOVSD X3, off(DI)

// func adamAVX2(val, m, v, grad *float64, consts *AdamConsts, n int)
TEXT ·adamAVX2(SB), NOSPLIT, $0-48
	MOVQ val+0(FP), DI
	MOVQ m+8(FP), SI
	MOVQ v+16(FP), DX
	MOVQ grad+24(FP), BX
	MOVQ consts+32(FP), R8
	MOVQ n+40(FP), CX
	VBROADCASTSD 0(R8), Y7
	VBROADCASTSD 8(R8), Y8
	VBROADCASTSD 16(R8), Y9
	VBROADCASTSD 24(R8), Y10
	VBROADCASTSD 32(R8), Y11
	VBROADCASTSD 40(R8), Y12
	VBROADCASTSD 48(R8), Y13
	VBROADCASTSD 56(R8), Y14
	VBROADCASTSD 64(R8), Y15
	MOVBQZX 72(R8), R9

quad:
	CMPQ CX, $4
	JLT single
	ADAMQ(0)
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, BX
	SUBQ $4, CX
	JMP quad

single:
	TESTQ CX, CX
	JZ done
	ADAMS(0)
	ADDQ $8, DI
	ADDQ $8, SI
	ADDQ $8, DX
	ADDQ $8, BX
	DECQ CX
	JMP single

done:
	VZEROUPPER
	RET

// func addRowsAVX2(dst, x, y *float64, rows, cols, dstep, xstep, ystep int)
//
// Row r of dst, cols elements from dst + r·dstep, is row r of x plus row r
// of y, x first, each read as dst is: AddRowVector's rows (y's step 0) and
// a bias gradient's column sums (dst's and y's step 0, the sum's rows in
// order).
TEXT ·addRowsAVX2(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), R11
	MOVQ x+8(FP), R12
	MOVQ y+16(FP), R13
	MOVQ rows+24(FP), BX
	MOVQ dstep+40(FP), R8
	MOVQ xstep+48(FP), R9
	MOVQ ystep+56(FP), R10
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10

row:
	MOVQ R11, DI
	MOVQ R12, SI
	MOVQ R13, DX
	MOVQ cols+32(FP), CX

quad:
	CMPQ CX, $4
	JLT single
	ADDQ4(0)
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, DX
	SUBQ $4, CX
	JMP quad

single:
	TESTQ CX, CX
	JZ next
	ADDS1(0)
	ADDQ $8, DI
	ADDQ $8, SI
	ADDQ $8, DX
	DECQ CX
	JMP single

next:
	ADDQ R8, R11
	ADDQ R9, R12
	ADDQ R10, R13
	DECQ BX
	JNZ row
	VZEROUPPER
	RET
