#include "textflag.h"

// The constants of math/exp_amd64.s, and the range [-708, 709] of
// arguments whose exp the ldexp step scales by a normal 2^e
// (e in [-1021, 1023]) with no overflow test firing.
DATA sigc<>+0(SB)/8, $-708.0
DATA sigc<>+8(SB)/8, $709.0
DATA sigc<>+16(SB)/8, $1.4426950408889634073599246810018920
DATA sigc<>+24(SB)/8, $0.69314718055966295651160180568695068359375
DATA sigc<>+32(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA sigc<>+40(SB)/8, $0.0625
DATA sigc<>+48(SB)/8, $1.0
DATA sigc<>+56(SB)/8, $2.0
DATA sigc<>+64(SB)/8, $0.5
DATA sigc<>+72(SB)/8, $1.6666666666666666667e-1
DATA sigc<>+80(SB)/8, $4.1666666666666666667e-2
DATA sigc<>+88(SB)/8, $8.3333333333333333333e-3
DATA sigc<>+96(SB)/8, $1.3888888888888888889e-3
DATA sigc<>+104(SB)/8, $1.9841269841269841270e-4
DATA sigc<>+112(SB)/8, $2.4801587301587301587e-5
DATA sigc<>+120(SB)/8, $1023
GLOBL sigc<>(SB), RODATA|NOPTR, $128

// TAYLOR steps the polynomial in Y1 by one coefficient: Y1 = Y1*r + c,
// fused, as exp_amd64.s's VFMADD213SD.
#define TAYLOR(off) \
	VBROADCASTSD sigc<>+off(SB), Y2; \
	VFMADD213PD  Y2, Y0, Y1

// func sigmoidAVX2(dst, x []float64, s, t, nt float64) int
//
// dst[i] = 1 / (1 + exp(nt*(x[i]*s - t))), four lanes a step, exp being
// the avxfma branch of math/exp_amd64.s instruction for instruction. It
// stops before the first block of four with an argument outside
// [-708, 709] (NaN included) or short of four, and returns the count
// written.
TEXT ·sigmoidAVX2(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	SHRQ $2, CX
	XORQ AX, AX
	TESTQ CX, CX
	JZ    done

	VBROADCASTSD s+48(FP), Y13
	VBROADCASTSD t+56(FP), Y14
	VBROADCASTSD nt+64(FP), Y15
	VBROADCASTSD sigc<>+0(SB), Y11
	VBROADCASTSD sigc<>+8(SB), Y12
	VBROADCASTSD sigc<>+16(SB), Y8
	VBROADCASTSD sigc<>+24(SB), Y7
	VBROADCASTSD sigc<>+32(SB), Y6
	VBROADCASTSD sigc<>+40(SB), Y5
	VBROADCASTSD sigc<>+48(SB), Y10
	VBROADCASTSD sigc<>+56(SB), Y9
	VBROADCASTSD sigc<>+120(SB), Y4

loop:
	// The argument y = nt*(x*s - t), and its range.
	VMOVUPD (SI)(AX*8), Y0
	VMULPD  Y13, Y0, Y0
	VSUBPD  Y14, Y0, Y0
	VMULPD  Y15, Y0, Y0
	VCMPPD  $0x1D, Y11, Y0, Y1 // y >= -708, false on NaN
	VCMPPD  $0x12, Y12, Y0, Y2 // y <= 709, false on NaN
	VANDPD  Y2, Y1, Y1
	VMOVMSKPD Y1, BX
	CMPQ    BX, $15
	JNE     done

	// e = round(LOG2E*y); r = (y - e*LN2U - e*LN2L)/16.
	VMULPD       Y8, Y0, Y1
	VCVTPD2DQY   Y1, X3
	VCVTDQ2PD    X3, Y1
	VFNMADD231PD Y7, Y1, Y0
	VFNMADD231PD Y6, Y1, Y0
	VMULPD       Y5, Y0, Y0

	// p = 1 + r/2 + r^2/3! + ... + r^7/8!, then r = r*p and four
	// squarings of 1+r: r*(r+2) three times, the last fused with the +1.
	VBROADCASTSD sigc<>+112(SB), Y1
	TAYLOR(104)
	TAYLOR(96)
	TAYLOR(88)
	TAYLOR(80)
	TAYLOR(72)
	TAYLOR(64)
	VFMADD213PD Y10, Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      Y9, Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      Y9, Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      Y9, Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      Y9, Y0, Y1
	VFMADD213PD Y10, Y1, Y0

	// exp = r * 2^e, then 1 / (1 + exp).
	VPMOVSXDQ X3, Y3
	VPADDQ    Y4, Y3, Y3
	VPSLLQ    $52, Y3, Y3
	VMULPD    Y3, Y0, Y0
	VADDPD    Y10, Y0, Y0
	VDIVPD    Y0, Y10, Y0
	VMOVUPD   Y0, (DI)(AX*8)
	ADDQ      $4, AX
	DECQ      CX
	JNZ       loop

done:
	MOVQ AX, ret+72(FP)
	VZEROUPPER
	RET
