#include "textflag.h"

// AVX2 kernels for ExpSlice, TanhSlice and SigmoidSlice (see
// kernel_amd64.go). Each lane runs the scalar code of math.go operation for
// operation: VMULPD, VADDPD, VSUBPD and VDIVPD round every step as the
// scalar MULSD, ADDSD, SUBSD and DIVSD do, and there is no fused
// multiply-add. int() is VCVTTPD2DQ (truncation, as Go's conversion), and
// Ldexp adds k to the exponent field, exact where the result is normal,
// which |x| ≤ 700 guarantees. A branch of the scalar code becomes a blend:
// every lane computes each branch it might take, and VBLENDVPD keeps the one
// its own value selects. Every VEX-256 function ends in VZEROUPPER.

// Each constant is four copies of one float64, a whole YMM operand.
#define CONST4(name, bits) \
	DATA name<>+0(SB)/8, $bits; \
	DATA name<>+8(SB)/8, $bits; \
	DATA name<>+16(SB)/8, $bits; \
	DATA name<>+24(SB)/8, $bits; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

CONST4(absmask, 0x7fffffffffffffff)
CONST4(signmask, 0x8000000000000000)
CONST4(half, 0x3fe0000000000000)    // 0.5
CONST4(one, 0x3ff0000000000000)     // 1
CONST4(two, 0x4000000000000000)     // 2
CONST4(log2e, 0x3ff71547652b82fe)   // expLog2e
CONST4(ln2hi, 0x3fe62e42fee00000)   // expLn2Hi
CONST4(ln2lo, 0x3dea39ef35793c76)   // expLn2Lo
CONST4(p1, 0x3fc5555555555555)      // expP1
CONST4(p2, 0xbf66c16c16bebd93)      // expP2
CONST4(p3, 0x3f11566aaf25de2c)      // expP3
CONST4(p4, 0xbebbbd41c5d26bf1)      // expP4
CONST4(p5, 0x3e66376972bea4d0)      // expP5
CONST4(expmax, 0x4085e00000000000)  // 700, the vector range's bound
CONST4(nearzero, 0x3e30000000000000) // expNearZero, 2**-28
CONST4(c0625, 0x3fe4000000000000)   // 0.625, Tanh's branch point
CONST4(c125, 0x3ff4000000000000)    // 1.25, an Exp input no lane keeps
CONST4(tanhmax, 0x404601e678fc457b) // tanhMax
CONST4(tp0, 0xbfeedc5baafd6f4b)     // tanhP[0]
CONST4(tp1, 0xc058d26a0e26682d)     // tanhP[1]
CONST4(tp2, 0xc0993ac030580563)     // tanhP[2]
CONST4(tq0, 0x405c33f28a581b86)     // tanhQ[0]
CONST4(tq1, 0x40a176fa0e5535fa)     // tanhQ[1]
CONST4(tq2, 0x40b2ec102442040c)     // tanhQ[2]

// VCMPPD predicates (ordered, quiet: false on a NaN lane, except UNORD).
#define EQ $0x00
#define UNORD $0x03
#define LT $0x11
#define LE $0x12
#define GE $0x1d
#define GT $0x1e

// EXPCORE sets Y10 to Exp(Y1) for lanes with 0 < |x| ≤ 700, Exp's main
// path: k = int(Log2e·x ± 0.5) with the sign of x, hi = x − k·Ln2Hi,
// lo = k·Ln2Lo, then expmulti(hi, lo, k). It clobbers Y2–Y11.
#define EXPCORE \
	VANDPD signmask<>(SB), Y1, Y2; \
	VORPD half<>(SB), Y2, Y2; \
	VMULPD log2e<>(SB), Y1, Y3; \
	VADDPD Y2, Y3, Y3; \
	VCVTTPD2DQY Y3, X3; \
	VCVTDQ2PD X3, Y4; \
	VMULPD ln2hi<>(SB), Y4, Y5; \
	VSUBPD Y5, Y1, Y5; \
	VMULPD ln2lo<>(SB), Y4, Y6; \
	VSUBPD Y6, Y5, Y7; \
	VMULPD Y7, Y7, Y8; \
	VMULPD p5<>(SB), Y8, Y9; \
	VADDPD p4<>(SB), Y9, Y9; \
	VMULPD Y9, Y8, Y9; \
	VADDPD p3<>(SB), Y9, Y9; \
	VMULPD Y9, Y8, Y9; \
	VADDPD p2<>(SB), Y9, Y9; \
	VMULPD Y9, Y8, Y9; \
	VADDPD p1<>(SB), Y9, Y9; \
	VMULPD Y9, Y8, Y9; \
	VSUBPD Y9, Y7, Y9; \
	VMULPD Y9, Y7, Y10; \
	VMOVUPD two<>(SB), Y11; \
	VSUBPD Y9, Y11, Y11; \
	VDIVPD Y11, Y10, Y10; \
	VSUBPD Y10, Y6, Y10; \
	VSUBPD Y5, Y10, Y10; \
	VMOVUPD one<>(SB), Y11; \
	VSUBPD Y10, Y11, Y10; \
	VPMOVSXDQ X3, Y3; \
	VPSLLQ $52, Y3, Y3; \
	VPADDQ Y3, Y10, Y10

// Registers: DI dst, SI src, CX groups left, AX elements written, Y0 the
// group's x, Y12 |x|.
#define ARGS \
	MOVQ dst+0(FP), DI; \
	MOVQ src+8(FP), SI; \
	MOVQ groups+16(FP), CX; \
	XORQ AX, AX; \
	TESTQ CX, CX; \
	JZ done

// INRANGE loads the group into Y0 and |x| into Y12, and leaves the loop
// unless every lane has |x| ≤ 700 (a NaN fails the compare).
#define INRANGE \
	VMOVUPD (SI)(AX*8), Y0; \
	VANDPD absmask<>(SB), Y0, Y12; \
	VCMPPD LE, expmax<>(SB), Y12, Y13; \
	VMOVMSKPD Y13, DX; \
	CMPQ DX, $15; \
	JNE done

#define NEXT \
	VMOVUPD Y10, (DI)(AX*8); \
	ADDQ $4, AX; \
	DECQ CX; \
	JNZ loop

// func expAVX2(dst, src *float64, groups int) int
TEXT ·expAVX2(SB), NOSPLIT, $0-32
	ARGS

loop:
	INRANGE
	VMOVUPD Y0, Y1
	EXPCORE
	// |x| < 2**-28: 1 + x.
	VCMPPD LT, nearzero<>(SB), Y12, Y13
	VADDPD one<>(SB), Y0, Y14
	VBLENDVPD Y13, Y14, Y10, Y10
	NEXT

done:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// func sigmoidAVX2(dst, src *float64, groups int) int
TEXT ·sigmoidAVX2(SB), NOSPLIT, $0-32
	ARGS

loop:
	INRANGE
	VXORPD signmask<>(SB), Y0, Y1
	EXPCORE
	VCMPPD LT, nearzero<>(SB), Y12, Y13
	VADDPD one<>(SB), Y1, Y14
	VBLENDVPD Y13, Y14, Y10, Y10
	// 1 / (1 + Exp(-x))
	VADDPD one<>(SB), Y10, Y10
	VMOVUPD one<>(SB), Y11
	VDIVPD Y10, Y11, Y10
	NEXT

done:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// func tanhAVX2(dst, src *float64, groups int) int
TEXT ·tanhAVX2(SB), NOSPLIT, $0-32
	ARGS

loop:
	VMOVUPD (SI)(AX*8), Y0
	VCMPPD UNORD, Y0, Y0, Y13
	VMOVMSKPD Y13, DX
	TESTQ DX, DX
	JNZ done
	VANDPD absmask<>(SB), Y0, Y12

	// 0.625 ≤ z ≤ tanhMax: 1 − 2/(Exp(2z) + 1), with x's sign. Other lanes
	// take Exp(1.25) and drop it.
	VCMPPD GE, c0625<>(SB), Y12, Y13
	VCMPPD LE, tanhmax<>(SB), Y12, Y14
	VANDPD Y14, Y13, Y13
	VADDPD Y12, Y12, Y14
	VMOVUPD c125<>(SB), Y1
	VBLENDVPD Y13, Y14, Y1, Y1
	EXPCORE
	VADDPD one<>(SB), Y10, Y10
	VMOVUPD two<>(SB), Y11
	VDIVPD Y10, Y11, Y10
	VMOVUPD one<>(SB), Y11
	VSUBPD Y10, Y11, Y10
	VANDPD signmask<>(SB), Y0, Y15
	VORPD Y15, Y10, Y10

	// z > tanhMax: ±1.
	VORPD one<>(SB), Y15, Y11
	VCMPPD GT, tanhmax<>(SB), Y12, Y14
	VBLENDVPD Y14, Y11, Y10, Y10

	// z < 0.625: x + x·s·p/q with s = x·x, or x itself where x == 0.
	VMULPD Y0, Y0, Y2
	VMULPD tp0<>(SB), Y2, Y3
	VADDPD tp1<>(SB), Y3, Y3
	VMULPD Y2, Y3, Y3
	VADDPD tp2<>(SB), Y3, Y3
	VADDPD tq0<>(SB), Y2, Y4
	VMULPD Y2, Y4, Y4
	VADDPD tq1<>(SB), Y4, Y4
	VMULPD Y2, Y4, Y4
	VADDPD tq2<>(SB), Y4, Y4
	VMULPD Y2, Y0, Y5
	VMULPD Y3, Y5, Y5
	VDIVPD Y4, Y5, Y5
	VADDPD Y5, Y0, Y5
	VXORPD Y6, Y6, Y6
	VCMPPD EQ, Y6, Y0, Y7
	VBLENDVPD Y7, Y0, Y5, Y5
	VCMPPD LT, c0625<>(SB), Y12, Y7
	VBLENDVPD Y7, Y5, Y10, Y10
	NEXT

done:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

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
