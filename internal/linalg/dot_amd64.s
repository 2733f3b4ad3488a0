//go:build amd64 && !race

#include "textflag.h"

// Packed SSE2 forms of dotPrefix4Go and dotPrefix2Go (chol.go). Every
// accumulator of the scalar kernel is one lane of an XMM register here,
// and it takes the same products in the same order: MULPD and ADDPD round
// each lane exactly as MULSD and ADDSD round the scalar, and no FMA fuses
// a product into its sum. So the results are bitwise identical to the
// scalar kernels. Only the SSE2 of the GOAMD64=v1 baseline is used, so no
// CPU detection is needed. MOVUPD: rows of a Dense need not be 16-byte
// aligned.

// func dotPrefix4SSE2(x, y0, y1, y2, y3 []float64) (a, b, c, d float64)
//
// X0..X3 hold (a0, a1), (b0, b1), (c0, c1), (d0, d1): lane 0 sums the
// even k, lane 1 the odd k. An odd tail element goes into lane 0, and
// each result is lane 0 + lane 1.
TEXT ·dotPrefix4SSE2(SB), NOSPLIT, $0-152
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ y0_base+24(FP), R8
	MOVQ y1_base+48(FP), R9
	MOVQ y2_base+72(FP), R10
	MOVQ y3_base+96(FP), R11
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORQ  AX, AX
	MOVQ  CX, DX
	ANDQ  $-2, DX
	JEQ   tail4

pairs4:
	MOVUPD (SI)(AX*8), X4
	MOVUPD (R8)(AX*8), X5
	MULPD  X4, X5
	ADDPD  X5, X0
	MOVUPD (R9)(AX*8), X6
	MULPD  X4, X6
	ADDPD  X6, X1
	MOVUPD (R10)(AX*8), X7
	MULPD  X4, X7
	ADDPD  X7, X2
	MOVUPD (R11)(AX*8), X8
	MULPD  X4, X8
	ADDPD  X8, X3
	ADDQ   $2, AX
	CMPQ   AX, DX
	JLT    pairs4

tail4:
	CMPQ  AX, CX
	JGE   sum4
	MOVSD (SI)(AX*8), X4
	MOVSD (R8)(AX*8), X5
	MULSD X4, X5
	ADDSD X5, X0
	MOVSD (R9)(AX*8), X6
	MULSD X4, X6
	ADDSD X6, X1
	MOVSD (R10)(AX*8), X7
	MULSD X4, X7
	ADDSD X7, X2
	MOVSD (R11)(AX*8), X8
	MULSD X4, X8
	ADDSD X8, X3

sum4:
	MOVAPD   X0, X4
	UNPCKHPD X4, X4
	ADDSD    X4, X0
	MOVSD    X0, a+120(FP)
	MOVAPD   X1, X5
	UNPCKHPD X5, X5
	ADDSD    X5, X1
	MOVSD    X1, b+128(FP)
	MOVAPD   X2, X6
	UNPCKHPD X6, X6
	ADDSD    X6, X2
	MOVSD    X2, c+136(FP)
	MOVAPD   X3, X7
	UNPCKHPD X7, X7
	ADDSD    X7, X3
	MOVSD    X3, d+144(FP)
	RET

// func dotPrefix2SSE2(x, y, z []float64) (s, t float64)
//
// X0, X1 hold dotPrefix's (s0, s1), (s2, s3) for y, and X2, X3 the same
// for z. The 0-3 element tail goes into s0 and t0, and each result is
// ((s0 + s1) + s2) + s3.
TEXT ·dotPrefix2SSE2(SB), NOSPLIT, $0-88
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ y_base+24(FP), DI
	MOVQ z_base+48(FP), R8
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORQ  AX, AX
	MOVQ  CX, DX
	ANDQ  $-4, DX
	JEQ   tail2

quads2:
	MOVUPD (SI)(AX*8), X4
	MOVUPD 16(SI)(AX*8), X5
	MOVUPD (DI)(AX*8), X6
	MULPD  X4, X6
	ADDPD  X6, X0
	MOVUPD 16(DI)(AX*8), X7
	MULPD  X5, X7
	ADDPD  X7, X1
	MOVUPD (R8)(AX*8), X8
	MULPD  X4, X8
	ADDPD  X8, X2
	MOVUPD 16(R8)(AX*8), X9
	MULPD  X5, X9
	ADDPD  X9, X3
	ADDQ   $4, AX
	CMPQ   AX, DX
	JLT    quads2

tail2:
	CMPQ  AX, CX
	JGE   sum2
	MOVSD (SI)(AX*8), X4
	MOVSD (DI)(AX*8), X6
	MULSD X4, X6
	ADDSD X6, X0
	MOVSD (R8)(AX*8), X8
	MULSD X4, X8
	ADDSD X8, X2
	INCQ  AX
	JMP   tail2

sum2:
	MOVAPD   X0, X4
	UNPCKHPD X4, X4
	ADDSD    X4, X0
	ADDSD    X1, X0
	UNPCKHPD X1, X1
	ADDSD    X1, X0
	MOVSD    X0, s+72(FP)
	MOVAPD   X2, X6
	UNPCKHPD X6, X6
	ADDSD    X6, X2
	ADDSD    X3, X2
	UNPCKHPD X3, X3
	ADDSD    X3, X2
	MOVSD    X2, t+80(FP)
	RET
