#include "textflag.h"

// func cpuid1ECX() uint32
TEXT ·cpuid1ECX(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// func mulAddPairAVX(o, c, b *float64, n int)
//
// Four columns per instruction, two output rows per pass over b: each
// loaded vector of b is multiplied by both rows' coefficients. Per lane
// this is mulInto's scalar update, t += c0·b0; t += c1·b1; t += c2·b2;
// t += c3·b3, as separate VMULPD and VADDPD (never a fused multiply-add),
// so every sum sees the same roundings in the same order.
TEXT ·mulAddPairAVX(SB), NOSPLIT, $0-32
	MOVQ o+0(FP), DI
	MOVQ c+8(FP), SI
	MOVQ b+16(FP), R8
	MOVQ n+24(FP), CX
	LEAQ (CX*8), DX           // row stride in bytes
	LEAQ (DI)(DX*1), R12      // second output row
	LEAQ (R8)(DX*1), R9       // rows k+1, k+2, k+3 of b
	LEAQ (R9)(DX*1), R10
	LEAQ (R10)(DX*1), R11

	VBROADCASTSD 0(SI), Y0    // first row's coefficients
	VBROADCASTSD 8(SI), Y1
	VBROADCASTSD 16(SI), Y2
	VBROADCASTSD 24(SI), Y3
	ADDQ DX, SI
	VBROADCASTSD 0(SI), Y4    // second row's coefficients
	VBROADCASTSD 8(SI), Y5
	VBROADCASTSD 16(SI), Y6
	VBROADCASTSD 24(SI), Y7

	ANDQ $~3, CX
	XORQ AX, AX

loop:
	VMOVUPD (DI)(AX*8), Y8
	VMOVUPD (R12)(AX*8), Y9

	VMOVUPD (R8)(AX*8), Y10
	VMULPD  Y10, Y0, Y11
	VMULPD  Y10, Y4, Y12
	VADDPD  Y11, Y8, Y8
	VADDPD  Y12, Y9, Y9

	VMOVUPD (R9)(AX*8), Y10
	VMULPD  Y10, Y1, Y11
	VMULPD  Y10, Y5, Y12
	VADDPD  Y11, Y8, Y8
	VADDPD  Y12, Y9, Y9

	VMOVUPD (R10)(AX*8), Y10
	VMULPD  Y10, Y2, Y11
	VMULPD  Y10, Y6, Y12
	VADDPD  Y11, Y8, Y8
	VADDPD  Y12, Y9, Y9

	VMOVUPD (R11)(AX*8), Y10
	VMULPD  Y10, Y3, Y11
	VMULPD  Y10, Y7, Y12
	VADDPD  Y11, Y8, Y8
	VADDPD  Y12, Y9, Y9

	VMOVUPD Y8, (DI)(AX*8)
	VMOVUPD Y9, (R12)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JB      loop

	VZEROUPPER
	RET
