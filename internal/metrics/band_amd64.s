#include "textflag.h"

// bits4 counts the bits of a 4-bit lane mask.
DATA bits4<>+0(SB)/8, $0x0302020102010100
DATA bits4<>+8(SB)/8, $0x0403030203020201
GLOBL bits4<>(SB), RODATA|NOPTR, $16

// func bandAVX(exps []Exposure, lo, hi int, th float64) int
//
// An Exposure is I's base at 0 and Dose at 24, 32 bytes. Y0 holds the
// nominal's four decisions, Y1 the lanes some other exposure flips.
TEXT ·bandAVX(SB), NOSPLIT, $0-56
	MOVQ exps_base+0(FP), SI
	MOVQ exps_len+8(FP), R11
	MOVQ lo+24(FP), AX
	MOVQ hi+32(FP), DX
	VBROADCASTSD th+40(FP), Y7
	SHLQ $5, R11
	ADDQ SI, R11
	MOVQ 0(SI), R12
	VBROADCASTSD 24(SI), Y6
	LEAQ bits4<>(SB), R9
	XORQ R10, R10

pixels:
	CMPQ AX, DX
	JAE  done
	VMULPD (R12)(AX*8), Y6, Y0
	VCMPPD $0x1E, Y7, Y0, Y0 // I*dose > th, false on NaN
	VXORPD Y1, Y1, Y1
	LEAQ   32(SI), R8

others:
	CMPQ R8, R11
	JAE  count
	MOVQ 0(R8), R13
	VBROADCASTSD 24(R8), Y2
	VMULPD (R13)(AX*8), Y2, Y2
	VCMPPD $0x1E, Y7, Y2, Y2
	VXORPD Y0, Y2, Y2
	VORPD  Y2, Y1, Y1
	ADDQ   $32, R8
	JMP    others

count:
	VMOVMSKPD Y1, BX
	MOVBQZX   (R9)(BX*1), BX
	ADDQ      BX, R10
	ADDQ      $4, AX
	JMP       pixels

done:
	MOVQ R10, ret+48(FP)
	VZEROUPPER
	RET
