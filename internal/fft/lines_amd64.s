#include "textflag.h"

// func fillAVX(row, src []complex128, w []float64, rev []int)
//
// SI and R11 walk src from 0 and from n/2, DX and R10 walk w the same way;
// Y0 = (src[x], src[x+n/2]) times Y1 = (w[x], w[x], w[x+n/2], w[x+n/2]).
TEXT ·fillAVX(SB), NOSPLIT, $0-96
	MOVQ row_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ w_base+48(FP), DX
	MOVQ rev_base+72(FP), R8
	MOVQ rev_len+80(FP), CX
	SHRQ $1, CX
	MOVQ CX, R9
	SHLQ $4, R9
	LEAQ (SI)(R9*1), R11
	LEAQ (DX)(CX*8), R10
	XORQ AX, AX

fill:
	VMOVUPD     (SI), X0
	VINSERTF128 $1, (R11), Y0, Y0
	VMOVDDUP    (DX)(AX*8), X1
	VMOVDDUP    (R10)(AX*8), X2
	VINSERTF128 $1, X2, Y1, Y1
	VMULPD      Y1, Y0, Y0
	MOVQ        (R8)(AX*8), BX
	SHLQ        $4, BX
	VMOVUPD     Y0, (DI)(BX*1)
	ADDQ        $16, SI
	ADDQ        $16, R11
	INCQ        AX
	CMPQ        AX, CX
	JB          fill
	VZEROUPPER
	RET
