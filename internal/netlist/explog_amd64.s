//go:build amd64 && !race

#include "textflag.h"

// Packed AVX2 forms of Go's amd64 math.Exp and math.Log (the standard
// library's exp_amd64.s, FMA branch, and log_amd64.s). Each YMM lane runs
// the scalar routine's instruction sequence on its own element: the same
// operations on the same operands in the same order, each rounded as its
// scalar form rounds it, so each lane gives the scalar routine's bits.
// Only the scalar routines' main path is packed. A block of four with any
// lane outside it (see each kernel) stops the kernel, and the Go caller
// computes that block with math.Exp or math.Log. The kernels run only
// where cpuHasAVX2FMA reported AVX2 and FMA and the probes of
// explog_amd64.go matched. A block is loaded before its results are
// stored, so dst may be x. VMOVUPD: the slices are only 8-byte aligned.
// Each kernel ends with VZEROUPPER, so SSE code after it pays no
// AVX-to-SSE transition. The constants below are the scalar routines'
// constants, given by their bits; each is stored four times, so that a
// packed instruction can take it as a 256-bit memory operand.

#define CONST4(name, bits) \
	DATA name<>+0(SB)/8, $bits \
	DATA name<>+8(SB)/8, $bits \
	DATA name<>+16(SB)/8, $bits \
	DATA name<>+24(SB)/8, $bits \
	GLOBL name<>(SB), RODATA|NOPTR, $32

CONST4(absMask, 0x7fffffffffffffff)
CONST4(expMax, 0x4085e00000000000)    // 700
CONST4(log2e, 0x3ff71547652b82fe)     // 1/ln 2
CONST4(ln2U, 0x3fe62e42fefa3000)      // upper half of ln 2
CONST4(ln2L, 0x3d53de6af278ece6)      // lower half of ln 2
CONST4(sixteenth, 0x3fb0000000000000) // 0.0625
CONST4(expC64, 0x3efa01a01a01a01a)    // 1/8!
CONST4(expC56, 0x3f2a01a01a01a01a)    // 1/7!
CONST4(expC48, 0x3f56c16c16c16c17)    // 1/6!
CONST4(expC40, 0x3f81111111111111)    // 1/5!
CONST4(expC32, 0x3fa5555555555555)    // 1/4!
CONST4(expC24, 0x3fc5555555555555)    // 1/3!
CONST4(half, 0x3fe0000000000000)      // 0.5
CONST4(one, 0x3ff0000000000000)       // 1
CONST4(two, 0x4000000000000000)       // 2
CONST4(expBias, 0x00000000000003ff)   // 1023, an int64

CONST4(minNormal, 0x0010000000000000)
CONST4(maxFinite, 0x7fefffffffffffff)
CONST4(mantMask, 0x000fffffffffffff)
CONST4(magic, 0x4330000000000000)     // 2^52
CONST4(magicBias, 0x43300000000003fe) // 2^52 + 1022
CONST4(hSqrt2, 0x3fe6a09e667f3bcd)    // √2/2
CONST4(ln2Hi, 0x3fe62e42fee00000)
CONST4(ln2Lo, 0x3dea39ef35793c76)
CONST4(logL1, 0x3fe5555555555593)
CONST4(logL2, 0x3fd999999997fa04)
CONST4(logL3, 0x3fd2492494229359)
CONST4(logL4, 0x3fcc71c51d8e78af)
CONST4(logL5, 0x3fc7466496cb03de)
CONST4(logL6, 0x3fc39a09d078c69f)
CONST4(logL7, 0x3fc2f112df3e5244)

// func cpuHasAVX2FMA() bool
//
// AVX2 and FMA are usable when CPUID leaf 1 reports FMA, OSXSAVE and AVX
// (ECX bits 12, 27 and 28), the OS saves the XMM and YMM state (XCR0 bits
// 1 and 2), and CPUID leaf 7 reports AVX2 (EBX bit 5).
TEXT ·cpuHasAVX2FMA(SB), NOSPLIT, $0-1
	XORL  AX, AX
	XORL  CX, CX
	CPUID
	CMPL  AX, $7
	JLT   no
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18001000, CX
	CMPL  CX, $0x18001000
	JNE   no
	XORL  CX, CX
	XGETBV
	ANDL  $6, AX
	CMPL  AX, $6
	JNE   no
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x20, BX
	JEQ   no
	MOVB  $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func expAVX2(dst, x []float64) int
//
// It sets dst[i] = math.Exp(x[i]) block by block over the ⌊len(x)/4⌋
// blocks of four, and returns the number of elements done: all the
// blocks', or those before the first block with a lane outside
// [−700, 700] or NaN. On that domain the scalar routine takes its main
// path: it is not ±Inf or NaN and does not overflow, and the exponent
// k = round(x/ln 2) lies in [−1010, 1010], so 2^k is a normal number and
// neither the denormal nor the overflow exit is taken. Per lane, in the
// scalar routine's order:
//
//	k  = round(x·log2e)           VCVTPD2DQ for CVTSD2SL, both under MXCSR
//	r  = x − k·ln2U − k·ln2L      two VFNMADD231PD, as VFNMADD231SD
//	r  = r/16
//	p  = Taylor terms to 1/8!     VFMADD213PD, as VFMADD213SD
//	r  = r·p, then four doublings r = r·(r+2), the last fused with +1
//	y  = r·2^k                    2^k built as (k+1023)<<52
//
// dst is at least as long as x.
TEXT ·expAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	SHRQ $2, CX
	XORQ AX, AX
	TESTQ CX, CX
	JEQ  expDone
	VMOVUPD absMask<>(SB), Y15
	VMOVUPD expMax<>(SB), Y14
	VMOVUPD log2e<>(SB), Y13
	VMOVUPD ln2U<>(SB), Y12
	VMOVUPD ln2L<>(SB), Y11
	VMOVUPD sixteenth<>(SB), Y10
	VMOVUPD two<>(SB), Y9
	VMOVUPD one<>(SB), Y8
	VMOVUPD expBias<>(SB), Y7

expBlock:
	VMOVUPD   (SI), Y0
	VANDPD    Y15, Y0, Y1
	VCMPPD    $0x12, Y14, Y1, Y1 // |x| ≤ 700, false on NaN (LE_OQ)
	VMOVMSKPD Y1, DX
	CMPL      DX, $15
	JNE       expDone

	VMULPD       Y13, Y0, Y1 // x·log2e
	VCVTPD2DQY   Y1, X2      // k, int32
	VCVTDQ2PD    X2, Y1      // float64(k)
	VFNMADD231PD Y12, Y1, Y0 // r = x − k·ln2U
	VFNMADD231PD Y11, Y1, Y0 // r −= k·ln2L
	VMULPD       Y10, Y0, Y0 // r /= 16

	VMOVUPD     expC64<>(SB), Y1
	VFMADD213PD expC56<>(SB), Y0, Y1
	VFMADD213PD expC48<>(SB), Y0, Y1
	VFMADD213PD expC40<>(SB), Y0, Y1
	VFMADD213PD expC32<>(SB), Y0, Y1
	VFMADD213PD expC24<>(SB), Y0, Y1
	VFMADD213PD half<>(SB), Y0, Y1
	VFMADD213PD Y8, Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      Y9, Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      Y9, Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      Y9, Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      Y9, Y0, Y1
	VFMADD213PD Y8, Y1, Y0 // r·(r+2) + 1

	VPMOVSXDQ X2, Y3
	VPADDQ    Y7, Y3, Y3
	VPSLLQ    $52, Y3, Y3 // 2^k
	VMULPD    Y3, Y0, Y0
	VMOVUPD   Y0, (DI)

	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $4, AX
	DECQ CX
	JNE  expBlock

expDone:
	VZEROUPPER
	MOVQ AX, ret+48(FP)
	RET

// func logAVX2(dst, x []float64) int
//
// It sets dst[i] = math.Log(x[i]) block by block over the ⌊len(x)/4⌋
// blocks of four, and returns the number of elements done: all the
// blocks', or those before the first block with a lane that is not a
// positive, normal, finite number. On that domain the scalar routine takes
// its main path, and its exponent field e needs no sign mask. Per lane, in
// the scalar routine's order:
//
//	f1 = x's mantissa with 0.5's exponent, k = e − 1022
//	if f1 ≤ √2/2 { k −= 1; f1 *= 2 }   CMPPD NLT(√2/2, f1), as CMPSD …, 5
//	f  = f1 − 1, s = f/(2+f), s2 = s², s4 = s2²
//	R  = s2·(L1+s4·(L3+s4·(L5+s4·L7))) + s4·(L2+s4·(L4+s4·L6))
//	hfsq = 0.5·f·f
//	y  = k·Ln2Hi − ((hfsq − (s·(hfsq+R) + k·Ln2Lo)) − f)
//
// The scalar routine converts the integer k with CVTSL2SD. Here k comes
// from the exponent field e ≤ 2046 as the float64 with bits
// 0x4330000000000000|e, which is 2^52 + e exactly, minus 2^52 + 1022: an
// exact difference of two floats of the same binade, so the integer e −
// 1022, with +0 for zero as CVTSL2SD gives. dst is at least as long as x.
TEXT ·logAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	SHRQ $2, CX
	XORQ AX, AX
	TESTQ CX, CX
	JEQ  logDone
	VMOVUPD minNormal<>(SB), Y15
	VMOVUPD maxFinite<>(SB), Y14
	VMOVUPD mantMask<>(SB), Y13
	VMOVUPD half<>(SB), Y12
	VMOVUPD magic<>(SB), Y11
	VMOVUPD magicBias<>(SB), Y10
	VMOVUPD hSqrt2<>(SB), Y9
	VMOVUPD one<>(SB), Y8
	VMOVUPD two<>(SB), Y7

logBlock:
	VMOVUPD   (SI), Y0
	VCMPPD    $0x1d, Y15, Y0, Y1 // x ≥ smallest normal (GE_OQ)
	VCMPPD    $0x12, Y14, Y0, Y2 // x ≤ largest finite (LE_OQ)
	VANDPD    Y2, Y1, Y1
	VMOVMSKPD Y1, DX
	CMPL      DX, $15
	JNE       logDone

	VANDPD Y13, Y0, Y2
	VORPD  Y12, Y2, Y2   // f1
	VPSRLQ $52, Y0, Y1   // e
	VPOR   Y11, Y1, Y1
	VSUBPD Y10, Y1, Y1   // k
	VCMPPD $5, Y2, Y9, Y3 // NLT(√2/2, f1)
	VANDPD Y8, Y3, Y3    // 0 or 1
	VSUBPD Y3, Y1, Y1    // k −= 0 or 1
	VADDPD Y8, Y3, Y3    // 1 or 2
	VMULPD Y3, Y2, Y2    // f1 *= 1 or 2
	VSUBPD Y8, Y2, Y2    // f = f1 − 1
	VADDPD Y7, Y2, Y3    // 2 + f
	VDIVPD Y3, Y2, Y3    // s = f/(2+f)
	VMULPD Y3, Y3, Y4    // s2
	VMULPD Y4, Y4, Y5    // s4

	VMULPD logL7<>(SB), Y5, Y6
	VADDPD logL5<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD logL3<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD logL1<>(SB), Y6, Y6
	VMULPD Y6, Y4, Y4 // t1
	VMULPD logL6<>(SB), Y5, Y6
	VADDPD logL4<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD logL2<>(SB), Y6, Y6
	VMULPD Y6, Y5, Y5 // t2
	VADDPD Y5, Y4, Y4 // R = t1 + t2

	VMULPD Y12, Y2, Y0         // 0.5·f
	VMULPD Y2, Y0, Y0          // hfsq
	VADDPD Y0, Y4, Y4          // hfsq + R
	VMULPD Y4, Y3, Y3          // s·(hfsq+R)
	VMULPD ln2Lo<>(SB), Y1, Y4 // k·Ln2Lo
	VADDPD Y4, Y3, Y3
	VSUBPD Y3, Y0, Y0
	VSUBPD Y2, Y0, Y0
	VMULPD ln2Hi<>(SB), Y1, Y1 // k·Ln2Hi
	VSUBPD Y0, Y1, Y1
	VMOVUPD Y1, (DI)

	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $4, AX
	DECQ CX
	JNE  logBlock

logDone:
	VZEROUPPER
	MOVQ AX, ret+48(FP)
	RET
