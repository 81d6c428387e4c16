#include "textflag.h"

// func accumAbs2AVX(dst []float64, src []complex128, w float64) int
//
// Per four elements c0..c3: Y0 = (c0, c2) and Y1 = (c1, c3) as loaded, so
// that VHADDPD of their squares lands |c0|², |c1|², |c2|², |c3|² in order.
TEXT ·accumAbs2AVX(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	VBROADCASTSD w+48(FP), Y7
	ANDQ $-4, CX
	XORQ AX, AX

loop:
	CMPQ AX, CX
	JAE  done
	VMOVUPD     0(SI), X0
	VINSERTF128 $1, 32(SI), Y0, Y0
	VMOVUPD     16(SI), X1
	VINSERTF128 $1, 48(SI), Y1, Y1
	VMULPD      Y0, Y0, Y0
	VMULPD      Y1, Y1, Y1
	VHADDPD     Y1, Y0, Y0
	VMULPD      Y0, Y7, Y0
	VADDPD      (DI)(AX*8), Y0, Y0
	VMOVUPD     Y0, (DI)(AX*8)
	ADDQ        $4, AX
	ADDQ        $64, SI
	JMP         loop

done:
	MOVQ CX, ret+56(FP)
	VZEROUPPER
	RET
