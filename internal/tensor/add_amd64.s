#include "textflag.h"

// func addF32(dst, src []float32)
TEXT ·addF32(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	CMPQ CX, $16
	JB   tail4

loop16:
	MOVUPS 0(DI), X0
	MOVUPS 16(DI), X1
	MOVUPS 32(DI), X2
	MOVUPS 48(DI), X3
	MOVUPS 0(SI), X4
	MOVUPS 16(SI), X5
	MOVUPS 32(SI), X6
	MOVUPS 48(SI), X7
	ADDPS  X4, X0
	ADDPS  X5, X1
	ADDPS  X6, X2
	ADDPS  X7, X3
	MOVUPS X0, 0(DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	ADDQ   $64, DI
	ADDQ   $64, SI
	SUBQ   $16, CX
	CMPQ   CX, $16
	JAE    loop16

tail4:
	CMPQ   CX, $4
	JB     tail1
	MOVUPS 0(DI), X0
	MOVUPS 0(SI), X4
	ADDPS  X4, X0
	MOVUPS X0, 0(DI)
	ADDQ   $16, DI
	ADDQ   $16, SI
	SUBQ   $4, CX
	JMP    tail4

tail1:
	TESTQ CX, CX
	JZ    done
	MOVSS 0(DI), X0
	MOVSS 0(SI), X4
	ADDSS X4, X0
	MOVSS X0, 0(DI)
	ADDQ  $4, DI
	ADDQ  $4, SI
	DECQ  CX
	JMP   tail1

done:
	RET
