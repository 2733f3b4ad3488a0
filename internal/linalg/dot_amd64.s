//go:build amd64 && !race

#include "textflag.h"

// Packed SSE2 forms of dotPrefix4Go and dotPrefix2Go (chol.go). Every
// accumulator of the scalar kernel is one lane of an XMM register here,
// and it takes the same products in the same order: MULPD and ADDPD round
// each lane exactly as MULSD and ADDSD round the scalar, and no FMA fuses
// a product into its sum. So the results are bitwise identical to the
// scalar kernels. They use only the SSE2 of the GOAMD64=v1 baseline, so
// they need no CPU detection; the AVX kernels at the end of this file do.
// MOVUPD: rows of a Dense need not be 16-byte aligned.

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

// The AVX kernels below run only where cpuHasAVX reported AVX (useAVX in
// dot_amd64.go). They use AVX1 and no FMA: VMULPD and VADDPD round each
// lane as MULSD and ADDSD round a scalar, so each keeps the bits of the
// scalar kernel it stands for. VMOVUPD: rows need not be 32-byte aligned.
// Each kernel ends with VZEROUPPER, so SSE code after it pays no
// AVX-to-SSE transition.

// func cpuHasAVX() bool
//
// AVX is usable when CPUID leaf 1 reports OSXSAVE and AVX (ECX bits 27 and
// 28) and the OS saves the XMM and YMM state (XCR0 bits 1 and 2).
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL   $1, AX
	XORL   CX, CX
	CPUID
	ANDL   $0x18000000, CX
	CMPL   CX, $0x18000000
	JNE    noavx
	XORL   CX, CX
	XGETBV
	ANDL   $6, AX
	CMPL   AX, $6
	JNE    noavx
	MOVB   $1, ret+0(FP)
	RET

noavx:
	MOVB $0, ret+0(FP)
	RET

// func trailTilesAVX(rows, pan []float64, stride, nb, cols int)
//
// Row r < 4 of the block starts at rows[r*stride]: nb panel elements x_r,
// then its trailing elements. Pivot row q starts at pan[q*stride] with its
// nb panel elements y_q. For every tile of four columns q..q+3 below
// 4⌊cols/4⌋ it subtracts the 16 dots x_r·y_q from the trailing elements
// (r, q..q+3), each rounded as dotPrefix4Go: an output's even-k and odd-k
// accumulators are two lanes of one YMM, an odd tail goes into the even
// lane only (VBLENDPD), and VHADDPD forms even + odd.
//
// For a tile's columns (a, b, c, d), Y0 holds row 0's (a0, a1 | c0, c1)
// and Y1 its (b0, b1 | d0, d1); Y2,Y3 row 1's, Y4,Y5 row 2's and Y6,Y7
// row 3's. Y8 holds (y_a[k], y_a[k+1] | y_c[k], y_c[k+1]), Y9 the same for
// b and d, and Y10 x_r's (x[k], x[k+1]) in both halves, so that
// VHADDPD Y1, Y0, Y0 leaves (a, b, c, d) in order.
//
// SI, DI, R8, R9 point at rows 0-3 and R10-R13 at the tile's pivot rows
// a-d. DX is the stride in bytes, CX the byte end of the k pairs, AX the
// byte offset of k, and BX the byte offset of the tile's first output.
TEXT ·trailTilesAVX(SB), NOSPLIT, $0-72
	MOVQ rows_base+0(FP), SI
	MOVQ pan_base+24(FP), R10
	MOVQ stride+48(FP), DX
	SHLQ $3, DX
	LEAQ (SI)(DX*1), DI
	LEAQ (DI)(DX*1), R8
	LEAQ (R8)(DX*1), R9
	MOVQ nb+56(FP), CX
	MOVQ CX, BX
	SHLQ $3, BX
	ANDQ $-2, CX
	SHLQ $3, CX

tile:
	MOVQ cols+64(FP), AX
	ANDQ $-4, AX
	ADDQ nb+56(FP), AX
	SHLQ $3, AX
	CMPQ BX, AX
	JGE  donet
	LEAQ (R10)(DX*1), R11
	LEAQ (R11)(DX*1), R12
	LEAQ (R12)(DX*1), R13
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ   AX, AX
	CMPQ   AX, CX
	JGE    tailt

pairt:
	VMOVUPD        (R10)(AX*1), X8
	VINSERTF128    $1, (R12)(AX*1), Y8, Y8
	VMOVUPD        (R11)(AX*1), X9
	VINSERTF128    $1, (R13)(AX*1), Y9, Y9
	VBROADCASTF128 (SI)(AX*1), Y10
	VMULPD         Y8, Y10, Y11
	VADDPD         Y11, Y0, Y0
	VMULPD         Y9, Y10, Y12
	VADDPD         Y12, Y1, Y1
	VBROADCASTF128 (DI)(AX*1), Y10
	VMULPD         Y8, Y10, Y11
	VADDPD         Y11, Y2, Y2
	VMULPD         Y9, Y10, Y12
	VADDPD         Y12, Y3, Y3
	VBROADCASTF128 (R8)(AX*1), Y10
	VMULPD         Y8, Y10, Y11
	VADDPD         Y11, Y4, Y4
	VMULPD         Y9, Y10, Y12
	VADDPD         Y12, Y5, Y5
	VBROADCASTF128 (R9)(AX*1), Y10
	VMULPD         Y8, Y10, Y11
	VADDPD         Y11, Y6, Y6
	VMULPD         Y9, Y10, Y12
	VADDPD         Y12, Y7, Y7
	ADDQ           $16, AX
	CMPQ           AX, CX
	JLT            pairt

tailt:
	TESTQ        $1, nb+56(FP)
	JEQ          sumt
	VMOVSD       (R10)(AX*1), X8
	VMOVSD       (R12)(AX*1), X11
	VINSERTF128  $1, X11, Y8, Y8
	VMOVSD       (R11)(AX*1), X9
	VMOVSD       (R13)(AX*1), X12
	VINSERTF128  $1, X12, Y9, Y9
	VBROADCASTSD (SI)(AX*1), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y0, Y11
	VBLENDPD     $5, Y11, Y0, Y0
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y1, Y12
	VBLENDPD     $5, Y12, Y1, Y1
	VBROADCASTSD (DI)(AX*1), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y2, Y11
	VBLENDPD     $5, Y11, Y2, Y2
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y3, Y12
	VBLENDPD     $5, Y12, Y3, Y3
	VBROADCASTSD (R8)(AX*1), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y4, Y11
	VBLENDPD     $5, Y11, Y4, Y4
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y5, Y12
	VBLENDPD     $5, Y12, Y5, Y5
	VBROADCASTSD (R9)(AX*1), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y6, Y11
	VBLENDPD     $5, Y11, Y6, Y6
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y7, Y12
	VBLENDPD     $5, Y12, Y7, Y7

sumt:
	VHADDPD Y1, Y0, Y0
	VMOVUPD (SI)(BX*1), Y8
	VSUBPD  Y0, Y8, Y8
	VMOVUPD Y8, (SI)(BX*1)
	VHADDPD Y3, Y2, Y2
	VMOVUPD (DI)(BX*1), Y8
	VSUBPD  Y2, Y8, Y8
	VMOVUPD Y8, (DI)(BX*1)
	VHADDPD Y5, Y4, Y4
	VMOVUPD (R8)(BX*1), Y8
	VSUBPD  Y4, Y8, Y8
	VMOVUPD Y8, (R8)(BX*1)
	VHADDPD Y7, Y6, Y6
	VMOVUPD (R9)(BX*1), Y8
	VSUBPD  Y6, Y8, Y8
	VMOVUPD Y8, (R9)(BX*1)
	ADDQ    $32, BX
	LEAQ    (R13)(DX*1), R10
	JMP     tile

donet:
	VZEROUPPER
	RET

// func panelBlockAVX(rows, diag []float64, stride, nb int)
//
// Row r < 4 of the block starts at rows[r*stride] with its nb panel
// elements, and pivot row j < nb of the factorized diagonal block at
// diag[j*stride]. For j = 0..nb-1 in turn it sets each row's element j to
// (x[j] - dotPrefix(x[:j], pivot_j[:j])) / pivot_j[j], so the rows are
// solved against the block exactly as panelRows solves them one by one.
//
// Y0-Y3 hold rows 0-3's dotPrefix accumulators (s0, s1 | s2, s3). The
// upper halves go to X9-X12 before the 0-3 element tail goes into s0,
// since the VEX scalar ops that add it zero bits 128-255. Each dot is
// then ((s0 + s1) + s2) + s3.
//
// SI, DI, R8, R9 point at rows 0-3 and R10 at pivot row j. DX is the
// stride in bytes, R11 the byte end of a row's panel, BX the byte offset
// of j, CX that of the last whole quad below j, and AX that of k.
TEXT ·panelBlockAVX(SB), NOSPLIT, $0-64
	MOVQ rows_base+0(FP), SI
	MOVQ diag_base+24(FP), R10
	MOVQ stride+48(FP), DX
	SHLQ $3, DX
	LEAQ (SI)(DX*1), DI
	LEAQ (DI)(DX*1), R8
	LEAQ (R8)(DX*1), R9
	MOVQ nb+56(FP), R11
	SHLQ $3, R11
	XORQ BX, BX

colp:
	CMPQ   BX, R11
	JGE    donep
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   BX, CX
	ANDQ   $-32, CX
	XORQ   AX, AX
	CMPQ   AX, CX
	JGE    tailp

quadp:
	VMOVUPD (R10)(AX*1), Y4
	VMULPD  (SI)(AX*1), Y4, Y5
	VADDPD  Y5, Y0, Y0
	VMULPD  (DI)(AX*1), Y4, Y6
	VADDPD  Y6, Y1, Y1
	VMULPD  (R8)(AX*1), Y4, Y7
	VADDPD  Y7, Y2, Y2
	VMULPD  (R9)(AX*1), Y4, Y8
	VADDPD  Y8, Y3, Y3
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     quadp

tailp:
	VEXTRACTF128 $1, Y0, X9
	VEXTRACTF128 $1, Y1, X10
	VEXTRACTF128 $1, Y2, X11
	VEXTRACTF128 $1, Y3, X12

tailk:
	CMPQ   AX, BX
	JGE    sump
	VMOVSD (R10)(AX*1), X4
	VMULSD (SI)(AX*1), X4, X5
	VADDSD X5, X0, X0
	VMULSD (DI)(AX*1), X4, X6
	VADDSD X6, X1, X1
	VMULSD (R8)(AX*1), X4, X7
	VADDSD X7, X2, X2
	VMULSD (R9)(AX*1), X4, X8
	VADDSD X8, X3, X3
	ADDQ   $8, AX
	JMP    tailk

sump:
	VUNPCKHPD X0, X0, X5
	VADDSD    X5, X0, X0
	VADDSD    X9, X0, X0
	VUNPCKHPD X9, X9, X9
	VADDSD    X9, X0, X0
	VMOVSD    (SI)(BX*1), X5
	VSUBSD    X0, X5, X5
	VDIVSD    (R10)(BX*1), X5, X5
	VMOVSD    X5, (SI)(BX*1)
	VUNPCKHPD X1, X1, X5
	VADDSD    X5, X1, X1
	VADDSD    X10, X1, X1
	VUNPCKHPD X10, X10, X10
	VADDSD    X10, X1, X1
	VMOVSD    (DI)(BX*1), X5
	VSUBSD    X1, X5, X5
	VDIVSD    (R10)(BX*1), X5, X5
	VMOVSD    X5, (DI)(BX*1)
	VUNPCKHPD X2, X2, X5
	VADDSD    X5, X2, X2
	VADDSD    X11, X2, X2
	VUNPCKHPD X11, X11, X11
	VADDSD    X11, X2, X2
	VMOVSD    (R8)(BX*1), X5
	VSUBSD    X2, X5, X5
	VDIVSD    (R10)(BX*1), X5, X5
	VMOVSD    X5, (R8)(BX*1)
	VUNPCKHPD X3, X3, X5
	VADDSD    X5, X3, X3
	VADDSD    X12, X3, X3
	VUNPCKHPD X12, X12, X12
	VADDSD    X12, X3, X3
	VMOVSD    (R9)(BX*1), X5
	VSUBSD    X3, X5, X5
	VDIVSD    (R10)(BX*1), X5, X5
	VMOVSD    X5, (R9)(BX*1)
	ADDQ      $8, BX
	ADDQ      DX, R10
	JMP       colp

donep:
	VZEROUPPER
	RET
