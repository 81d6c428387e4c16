#include "textflag.h"

// The AVX passes of butterflies (see butterflies_amd64.go). A register
// holds two complex128, (re0, im0, re1, im1); only VEX-encoded
// instructions are used, and VZEROUPPER precedes each return.

// negHi flips the sign of the upper complex128; rotFwd and rotInv, applied
// after the swap of its parts, turn it into -i*d = (im, -re) and
// i*d = (-im, re).
DATA negHi<>+0(SB)/8, $0
DATA negHi<>+8(SB)/8, $0
DATA negHi<>+16(SB)/8, $0x8000000000000000
DATA negHi<>+24(SB)/8, $0x8000000000000000
GLOBL negHi<>(SB), RODATA|NOPTR, $32

DATA rotFwd<>+0(SB)/8, $0
DATA rotFwd<>+8(SB)/8, $0
DATA rotFwd<>+16(SB)/8, $0
DATA rotFwd<>+24(SB)/8, $0x8000000000000000
GLOBL rotFwd<>(SB), RODATA|NOPTR, $32

DATA rotInv<>+0(SB)/8, $0
DATA rotInv<>+8(SB)/8, $0
DATA rotInv<>+16(SB)/8, $0x8000000000000000
DATA rotInv<>+24(SB)/8, $0
GLOBL rotInv<>(SB), RODATA|NOPTR, $32

// CMUL sets x to x*w for the twiddle pair whose duplicated real parts are
// at re and imaginary parts at im: (a*c - b*d, b*c + a*d), each product
// rounded before the sum, as Go computes (a*c - b*d, a*d + b*c).
#define CMUL(re, im, x, tmp) \
	VPERMILPD $5, x, tmp; \
	VMULPD    im, tmp, tmp; \
	VMULPD    re, x, x; \
	VADDSUBPD tmp, x, x

// CMUL1 is CMUL for the offset pair (0, 1): offset 0's twiddle is exactly
// 1 and is skipped, so its lane keeps x as it was.
#define CMUL1(re, im, x, tmp, prod) \
	VMOVAPD   x, prod; \
	CMUL(re, im, prod, tmp); \
	VBLENDPD  $0x0C, prod, x, x

// func size4AVX(x []complex128, inverse bool)
//
// Per group (a, b, c, d) of four: a, b = a+b, a-b and c, d = c+d, c-d as
// (a, a) + (b, -b) — a subtraction is the addition of the negation, bit for
// bit — then d rotated by -+i, then (a+c, b+d) and (a-c, b-d).
TEXT ·size4AVX(SB), NOSPLIT, $0-25
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	SHRQ $2, CX
	VMOVUPD negHi<>(SB), Y6
	VMOVUPD rotFwd<>(SB), Y7
	CMPB inverse+24(FP), $0
	JEQ  size4loop
	VMOVUPD rotInv<>(SB), Y7

size4loop:
	VBROADCASTF128 0(DI), Y0
	VBROADCASTF128 16(DI), Y1
	VBROADCASTF128 32(DI), Y2
	VBROADCASTF128 48(DI), Y3
	VXORPD    Y6, Y1, Y1
	VXORPD    Y6, Y3, Y3
	VADDPD    Y1, Y0, Y0
	VADDPD    Y3, Y2, Y2
	VPERMILPD $6, Y2, Y2
	VXORPD    Y7, Y2, Y2
	VADDPD    Y2, Y0, Y1
	VSUBPD    Y2, Y0, Y3
	VMOVUPD   Y1, 0(DI)
	VMOVUPD   Y3, 32(DI)
	ADDQ      $64, DI
	DECQ      CX
	JNZ       size4loop
	VZEROUPPER
	RET

// R4LOAD and R4STORE move the offset pair at AX of the four quarters, a
// quarter R8 bytes long and R10 = 3*R8.
#define R4LOAD \
	VMOVUPD (AX), Y0; \
	VMOVUPD (AX)(R8*1), Y1; \
	VMOVUPD (AX)(R8*2), Y2; \
	VMOVUPD (AX)(R10*1), Y3

// R4SUMS: a, b = a+b, a-b and c, d = c+d, c-d into Y4, Y5, Y6, Y7.
#define R4SUMS \
	VADDPD Y1, Y0, Y4; \
	VSUBPD Y1, Y0, Y5; \
	VADDPD Y3, Y2, Y6; \
	VSUBPD Y3, Y2, Y7

// R4STORE: q0, q2 = a+c, a-c and q1, q3 = b+d, b-d.
#define R4STORE \
	VADDPD  Y6, Y4, Y0; \
	VSUBPD  Y6, Y4, Y2; \
	VADDPD  Y7, Y5, Y1; \
	VSUBPD  Y7, Y5, Y3; \
	VMOVUPD Y0, (AX); \
	VMOVUPD Y1, (AX)(R8*1); \
	VMOVUPD Y2, (AX)(R8*2); \
	VMOVUPD Y3, (AX)(R10*1)

// func radix4AVX(x []complex128, h int, tw []float64)
//
// The levels of sizes 2h and 4h over each block of four quarters: the
// first level's twiddle multiplies q1 and q3, the second level's two
// multiply the new c and d. A pair's twiddles are 192 bytes at SI: the
// three twiddles' real then imaginary parts.
TEXT ·radix4AVX(SB), NOSPLIT, $0-56
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	MOVQ h+24(FP), R8
	MOVQ tw_base+32(FP), R11
	SHLQ $4, R8
	LEAQ (R8)(R8*2), R10
	SHLQ $4, CX
	LEAQ (DI)(CX*1), R12

r4block:
	MOVQ DI, AX
	LEAQ (DI)(R8*1), R13
	MOVQ R11, SI

	// Offsets 0 and 1: offset 0 skips the first level's twiddles and the
	// second level's for c, and multiplies d by its w[n/4].
	R4LOAD
	CMUL1(0(SI), 32(SI), Y1, Y8, Y10)
	CMUL1(0(SI), 32(SI), Y3, Y9, Y11)
	R4SUMS
	CMUL1(64(SI), 96(SI), Y6, Y8, Y10)
	CMUL(128(SI), 160(SI), Y7, Y9)
	R4STORE
	ADDQ $32, AX
	ADDQ $192, SI

r4pairs:
	CMPQ AX, R13
	JAE  r4next
	R4LOAD
	CMUL(0(SI), 32(SI), Y1, Y8)
	CMUL(0(SI), 32(SI), Y3, Y9)
	R4SUMS
	CMUL(64(SI), 96(SI), Y6, Y8)
	CMUL(128(SI), 160(SI), Y7, Y9)
	R4STORE
	ADDQ $32, AX
	ADDQ $192, SI
	JMP  r4pairs

r4next:
	LEAQ (DI)(R8*4), DI
	CMPQ DI, R12
	JB   r4block
	VZEROUPPER
	RET

// func radix2AVX(x []complex128, tw []float64)
//
// The last level when log2 n is odd: u, v = x[j], x[j+n/2]*w[j] into
// u+v, u-v. A pair's twiddle is 64 bytes at SI.
TEXT ·radix2AVX(SB), NOSPLIT, $0-48
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), R8
	MOVQ tw_base+24(FP), SI
	SHLQ $3, R8
	LEAQ (DI)(R8*1), R13

	VMOVUPD (DI), Y0
	VMOVUPD (DI)(R8*1), Y1
	CMUL1(0(SI), 32(SI), Y1, Y2, Y3)
	VADDPD  Y1, Y0, Y2
	VSUBPD  Y1, Y0, Y3
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, (DI)(R8*1)
	ADDQ    $32, DI
	ADDQ    $64, SI

r2pairs:
	CMPQ    DI, R13
	JAE     r2done
	VMOVUPD (DI), Y0
	VMOVUPD (DI)(R8*1), Y1
	CMUL(0(SI), 32(SI), Y1, Y2)
	VADDPD  Y1, Y0, Y2
	VSUBPD  Y1, Y0, Y3
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, (DI)(R8*1)
	ADDQ    $32, DI
	ADDQ    $64, SI
	JMP     r2pairs

r2done:
	VZEROUPPER
	RET
