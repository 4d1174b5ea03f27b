#include "textflag.h"

// func scanWordAVX2(p *float32, bs, nblocks int) uint64
TEXT ·scanWordAVX2(SB), NOSPLIT, $0-32
	MOVQ p+0(FP), SI
	MOVQ bs+8(FP), DX
	SHLQ $2, DX                 // DX = block length in bytes, a multiple of 128
	MOVQ nblocks+16(FP), CX
	XORQ AX, AX                 // AX = the word
	XORQ BX, BX                 // BX = bit index of the current block
	MOVL $0x7fffffff, R8
	MOVQ R8, X4
	VPBROADCASTD X4, Y4         // Y4 = sign mask in every float32 lane

block:
	CMPQ  BX, CX
	JAE   done
	// A dense block leaves on its first element.
	TESTL $0x7fffffff, (SI)
	JNZ   nonzero
	MOVQ  SI, DI
	MOVQ  DX, R9

step:
	VMOVDQU 0(DI), Y0
	VMOVDQU 32(DI), Y1
	VMOVDQU 64(DI), Y2
	VMOVDQU 96(DI), Y3
	VPOR    Y1, Y0, Y0
	VPOR    Y3, Y2, Y2
	VPOR    Y2, Y0, Y0
	VPTEST  Y4, Y0              // ZF = 1 iff all 32 floats are ±0
	JNZ     nonzero
	ADDQ    $128, DI
	SUBQ    $128, R9
	JNZ     step
	JMP     next

nonzero:
	BTSQ BX, AX

next:
	ADDQ DX, SI
	INCQ BX
	JMP  block

done:
	VZEROUPPER
	MOVQ AX, ret+24(FP)
	RET

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv() uint32
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
