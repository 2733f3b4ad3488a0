//go:build amd64 && !race

#include "textflag.h"

// Packed SSE2 form of HPWLEval.hpwlGo (hpwleval.go). A geom.Point is two
// float64s, (X, Y), so one MOVUPD loads a center into one XMM register,
// and one MINPD or MAXPD folds both of its coordinates into a net's box.
// MINPD and MAXPD are exact, like the builtin min and max; they differ
// from them only on NaN operands, which the Go caller keeps away, and on
// ±0 ties, which cannot change the total (see the HPWLEval doc comment).
// The side lengths, their sum, the product with the weight and the running
// total are SUBPD, ADDSD, MULSD and ADDSD, each rounded as the Go loop
// rounds it, and no FMA fuses the product into the sum. SSE2 only, the
// GOAMD64=v1 baseline, so no CPU detection. MOVUPD: a []geom.Point or
// []geom.Rect is only 8-byte aligned.

// func hpwlSSE2(centers []geom.Point, start, mods []int32, weight []float64, seed []geom.Rect) float64
//
// Per net, X0 and X1 hold (minX, minY) and (maxX, maxY) over the even pins
// of the net's module list, X2 and X3 the same over the odd pins. Both
// pairs start from the net's seed box, an odd tail pin goes into X0 and
// X1, and the pairs merge at the net's end. X8 is the total, summed in net
// order. R11 walks mods across all nets (start[0] is 0 and the nets'
// lists are contiguous), and R10 walks seed.
TEXT ·hpwlSSE2(SB), NOSPLIT, $0-128
	MOVQ  centers_base+0(FP), DI
	MOVQ  start_base+24(FP), SI
	MOVQ  mods_base+48(FP), R8
	MOVQ  weight_base+72(FP), R9
	MOVQ  weight_len+80(FP), CX
	MOVQ  seed_base+96(FP), R10
	XORPS X8, X8
	XORQ  BX, BX
	XORQ  R11, R11
	TESTQ CX, CX
	JEQ   done

net:
	MOVLQSX 4(SI)(BX*4), R12 // the net's pins end at R12
	LEAQ    -1(R12), R13     // a pin pair starts below R13
	MOVUPD  (R10), X0
	MOVUPD  16(R10), X1
	MOVAPD  X0, X2
	MOVAPD  X1, X3
	CMPQ    R11, R13
	JGE     tail

pairs:
	MOVLQSX (R8)(R11*4), AX
	MOVLQSX 4(R8)(R11*4), DX
	SHLQ    $4, AX
	SHLQ    $4, DX
	MOVUPD  (DI)(AX*1), X4
	MOVUPD  (DI)(DX*1), X5
	MINPD   X4, X0
	MAXPD   X4, X1
	MINPD   X5, X2
	MAXPD   X5, X3
	ADDQ    $2, R11
	CMPQ    R11, R13
	JLT     pairs

tail:
	CMPQ    R11, R12
	JGE     merge
	MOVLQSX (R8)(R11*4), AX
	SHLQ    $4, AX
	MOVUPD  (DI)(AX*1), X4
	MINPD   X4, X0
	MAXPD   X4, X1
	INCQ    R11

merge:
	MINPD    X2, X0
	MAXPD    X3, X1
	SUBPD    X0, X1         // (maxX − minX, maxY − minY)
	MOVAPD   X1, X4
	UNPCKHPD X4, X4
	ADDSD    X4, X1         // (maxX − minX) + (maxY − minY)
	MULSD    (R9)(BX*8), X1 // × w
	ADDSD    X1, X8
	ADDQ     $32, R10
	INCQ     BX
	CMPQ     BX, CX
	JLT      net

done:
	MOVSD X8, ret+120(FP)
	RET
