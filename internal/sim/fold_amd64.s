#include "textflag.h"

// func foldPairAVX(dst []float64, f []complex128, ma, mb float64) int
//
// Y6 = (ma, mb, ma, mb) scales each (re, im) lane pair. Per four pixels
// c0..c3: Y0 = (c0, c2) and Y1 = (c1, c3) as loaded, so that VHADDPD of
// the scaled squares lands the four sums in order, each (ma*re)*re plus
// (mb*im)*im.
TEXT ·foldPairAVX(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ f_base+24(FP), SI
	MOVQ f_len+32(FP), CX
	VMOVSD      ma+48(FP), X6
	VMOVHPD     mb+56(FP), X6, X6
	VINSERTF128 $1, X6, Y6, Y6
	ANDQ $-4, CX
	XORQ AX, AX

loop:
	CMPQ AX, CX
	JAE  done
	VMOVUPD     0(SI), X0
	VINSERTF128 $1, 32(SI), Y0, Y0
	VMOVUPD     16(SI), X1
	VINSERTF128 $1, 48(SI), Y1, Y1
	VMULPD      Y0, Y6, Y2
	VMULPD      Y0, Y2, Y2
	VMULPD      Y1, Y6, Y3
	VMULPD      Y1, Y3, Y3
	VHADDPD     Y3, Y2, Y2
	VADDPD      (DI)(AX*8), Y2, Y2
	VMOVUPD     Y2, (DI)(AX*8)
	ADDQ        $4, AX
	ADDQ        $64, SI
	JMP         loop

done:
	MOVQ CX, ret+64(FP)
	VZEROUPPER
	RET
