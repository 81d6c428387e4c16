#include "textflag.h"

// The AVX kernels of W's terms (see sensitivity_amd64.go): four pixels a
// register, each product and difference one VMULPD or VSUBPD in the Go
// loop's order, none fused. An operand order differs from Go's only where
// both operands are NaN, whose payload Go's commutative float ops leave to
// the register allocator too.

DATA one<>+0(SB)/8, $1.0
GLOBL one<>(SB), RODATA|NOPTR, $8

// SETUP loads w, z and t's bases and the rounded-down length, and
// broadcasts 1; each kernel broadcasts its term's scalar, thetaZ and dose
// into Y12, Y13 and Y14.
#define SETUP \
	MOVQ w_base+0(FP), DI; \
	MOVQ w_len+8(FP), CX; \
	MOVQ z_base+24(FP), SI; \
	MOVQ t_base+48(FP), DX; \
	ANDQ $-4, CX; \
	XORQ AX, AX; \
	VBROADCASTSD one<>(SB), Y15

// RESIST loads z into Y0, d = z - t into Y3 and the resist factor
// ((thetaZ*z)*(1-z))*dose into Y1.
#define RESIST \
	VMOVUPD (SI)(AX*8), Y0; \
	VSUBPD  (DX)(AX*8), Y0, Y3; \
	VMULPD  Y0, Y13, Y1; \
	VSUBPD  Y0, Y15, Y2; \
	VMULPD  Y2, Y1, Y1; \
	VMULPD  Y14, Y1, Y1

// ACCUM multiplies the term's factor in Y4 by the resist factor and adds
// the product into w.
#define ACCUM \
	VMULPD  Y1, Y4, Y4; \
	VADDPD  (DI)(AX*8), Y4, Y4; \
	VMOVUPD Y4, (DI)(AX*8); \
	ADDQ    $4, AX

// func wBetaAVX(w, z, t []float64, c, thetaZ, dose float64) int
TEXT ·wBetaAVX(SB), NOSPLIT, $0-104
	SETUP
	VBROADCASTSD c+72(FP), Y12
	VBROADCASTSD thetaZ+80(FP), Y13
	VBROADCASTSD dose+88(FP), Y14

beta:
	CMPQ AX, CX
	JAE  betaDone
	RESIST
	VMULPD Y3, Y12, Y4
	ACCUM
	JMP beta

betaDone:
	MOVQ CX, ret+96(FP)
	VZEROUPPER
	RET

// func wCubeAVX(w, z, t []float64, c, thetaZ, dose float64) int
TEXT ·wCubeAVX(SB), NOSPLIT, $0-104
	SETUP
	VBROADCASTSD c+72(FP), Y12
	VBROADCASTSD thetaZ+80(FP), Y13
	VBROADCASTSD dose+88(FP), Y14

cube:
	CMPQ AX, CX
	JAE  cubeDone
	RESIST
	VMULPD Y3, Y3, Y4
	VMULPD Y3, Y4, Y4
	VMULPD Y4, Y12, Y4
	ACCUM
	JMP cube

cubeDone:
	MOVQ CX, ret+96(FP)
	VZEROUPPER
	RET

// func wEpeAVX(w, z, t, epeW []float64, thetaZ, dose float64) int
//
// epeW*2 is epeW+epeW, as Go compiles it: the same bits.
TEXT ·wEpeAVX(SB), NOSPLIT, $0-120
	SETUP
	VBROADCASTSD thetaZ+96(FP), Y13
	VBROADCASTSD dose+104(FP), Y14
	MOVQ epeW_base+72(FP), R8

epe:
	CMPQ AX, CX
	JAE  epeDone
	RESIST
	VMOVUPD (R8)(AX*8), Y4
	VADDPD  Y4, Y4, Y4
	VMULPD  Y3, Y4, Y4
	ACCUM
	JMP epe

epeDone:
	MOVQ CX, ret+112(FP)
	VZEROUPPER
	RET
