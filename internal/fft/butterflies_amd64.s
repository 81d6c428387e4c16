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

// The column passes (see columnsAVX). A block holds one line per column:
// row r is entry r of every column's bit-reversed line, rows DX bytes
// apart, and a register holds one row's entries for two adjacent columns.
// Each butterfly is the one above with rows in place of the line's
// elements, so a column sees the operations butterflies performs on its
// line; a twiddle is broadcast to both columns by VBROADCASTSD.

// colRotFwd and colRotInv, applied after the swap of each complex128's
// parts, turn d into -i*d = (im, -re) and i*d = (-im, re).
DATA colRotFwd<>+0(SB)/8, $0
DATA colRotFwd<>+8(SB)/8, $0x8000000000000000
DATA colRotFwd<>+16(SB)/8, $0
DATA colRotFwd<>+24(SB)/8, $0x8000000000000000
GLOBL colRotFwd<>(SB), RODATA|NOPTR, $32

DATA colRotInv<>+0(SB)/8, $0x8000000000000000
DATA colRotInv<>+8(SB)/8, $0
DATA colRotInv<>+16(SB)/8, $0x8000000000000000
DATA colRotInv<>+24(SB)/8, $0
GLOBL colRotInv<>(SB), RODATA|NOPTR, $32

// func colSize4AVX(x []complex128, n, w, stride int, inverse bool)
//
// Sizes 2 and 4 over each group of four rows: a, b = a+b, a-b and
// c, d = c+d, c-d, d rotated by -+i, then (a+c, b+d, a-c, b-d).
TEXT ·colSize4AVX(SB), NOSPLIT, $0-49
	MOVQ x_base+0(FP), DI
	MOVQ n+24(FP), BX
	MOVQ w+32(FP), R9
	MOVQ stride+40(FP), R8
	SHLQ $4, R8
	LEAQ (R8)(R8*2), R10
	SHRQ $1, R9
	SHRQ $2, BX
	VMOVUPD colRotFwd<>(SB), Y12
	CMPB inverse+48(FP), $0
	JEQ  c4group
	VMOVUPD colRotInv<>(SB), Y12

c4group:
	MOVQ DI, AX
	MOVQ R9, CX

c4pair:
	R4LOAD
	R4SUMS
	VPERMILPD $5, Y7, Y7
	VXORPD    Y12, Y7, Y7
	R4STORE
	ADDQ $32, AX
	DECQ CX
	JNZ  c4pair
	LEAQ (DI)(R8*4), DI
	DECQ BX
	JNZ  c4group
	VZEROUPPER
	RET

// func colRadix4AVX(x []complex128, n, w, stride, h int, tw [][3]complex128)
//
// The levels of sizes 2h and 4h over each block of 4h rows, offset j
// running rows j, j+h, j+2h and j+3h with the triple tw[j] (48 bytes at
// SI) broadcast into Y10..Y15. Offset 0 multiplies d alone, by tw[0][2].
TEXT ·colRadix4AVX(SB), NOSPLIT, $0-80
	MOVQ  x_base+0(FP), DI
	MOVQ  n+24(FP), R12
	MOVQ  w+32(FP), R9
	MOVQ  stride+40(FP), DX
	MOVQ  h+48(FP), R8
	MOVQ  tw_base+56(FP), R11
	SHLQ  $4, DX
	SHRQ  $1, R9
	IMULQ DX, R8
	LEAQ  (R8)(R8*2), R10
	IMULQ DX, R12
	ADDQ  DI, R12

cr4block:
	VBROADCASTSD 32(R11), Y14
	VBROADCASTSD 40(R11), Y15
	MOVQ DI, AX
	MOVQ R9, CX

cr4zero:
	R4LOAD
	R4SUMS
	CMUL(Y14, Y15, Y7, Y9)
	R4STORE
	ADDQ $32, AX
	DECQ CX
	JNZ  cr4zero
	LEAQ (DI)(DX*1), BX
	LEAQ (DI)(R8*1), R13
	LEAQ 48(R11), SI

cr4offset:
	CMPQ BX, R13
	JAE  cr4next
	VBROADCASTSD 0(SI), Y10
	VBROADCASTSD 8(SI), Y11
	VBROADCASTSD 16(SI), Y12
	VBROADCASTSD 24(SI), Y13
	VBROADCASTSD 32(SI), Y14
	VBROADCASTSD 40(SI), Y15
	MOVQ BX, AX
	MOVQ R9, CX

cr4pair:
	R4LOAD
	CMUL(Y10, Y11, Y1, Y8)
	CMUL(Y10, Y11, Y3, Y9)
	R4SUMS
	CMUL(Y12, Y13, Y6, Y8)
	CMUL(Y14, Y15, Y7, Y9)
	R4STORE
	ADDQ $32, AX
	DECQ CX
	JNZ  cr4pair
	ADDQ DX, BX
	ADDQ $48, SI
	JMP  cr4offset

cr4next:
	LEAQ (DI)(R8*4), DI
	CMPQ DI, R12
	JB   cr4block
	VZEROUPPER
	RET

// func colRadix2AVX(x []complex128, h, w, stride int, tw []complex128)
//
// The odd last level over the 2h rows: rows j and j+h, the lower one
// times tw[j] (16 bytes at SI), into their sum and difference; offset 0
// multiplies nothing.
TEXT ·colRadix2AVX(SB), NOSPLIT, $0-72
	MOVQ  x_base+0(FP), DI
	MOVQ  h+24(FP), R8
	MOVQ  w+32(FP), R9
	MOVQ  stride+40(FP), DX
	MOVQ  tw_base+48(FP), SI
	SHLQ  $4, DX
	SHRQ  $1, R9
	IMULQ DX, R8
	MOVQ  DI, AX
	MOVQ  R9, CX

cr2zero:
	VMOVUPD (AX), Y0
	VMOVUPD (AX)(R8*1), Y1
	VADDPD  Y1, Y0, Y2
	VSUBPD  Y1, Y0, Y3
	VMOVUPD Y2, (AX)
	VMOVUPD Y3, (AX)(R8*1)
	ADDQ    $32, AX
	DECQ    CX
	JNZ     cr2zero
	LEAQ    (DI)(DX*1), BX
	LEAQ    (DI)(R8*1), R13
	ADDQ    $16, SI

cr2offset:
	CMPQ         BX, R13
	JAE          cr2done
	VBROADCASTSD 0(SI), Y10
	VBROADCASTSD 8(SI), Y11
	MOVQ         BX, AX
	MOVQ         R9, CX

cr2pair:
	VMOVUPD (AX), Y0
	VMOVUPD (AX)(R8*1), Y1
	CMUL(Y10, Y11, Y1, Y8)
	VADDPD  Y1, Y0, Y2
	VSUBPD  Y1, Y0, Y3
	VMOVUPD Y2, (AX)
	VMOVUPD Y3, (AX)(R8*1)
	ADDQ    $32, AX
	DECQ    CX
	JNZ     cr2pair
	ADDQ    DX, BX
	ADDQ    $16, SI
	JMP     cr2offset

cr2done:
	VZEROUPPER
	RET
