#include "textflag.h"

// The registers of mergeTwoChains. Each chain holds a pointer to its
// current key in a and in b and to its output slot in mk; a value lies a
// fixed distance from its key (av - ak, bv - bk, mv - mk), so one pointer
// addresses both and the chains share the three distances.
#define FA SI
#define FB DI
#define FO R8
#define BA R9
#define BB R10
#define BO R11
#define DA R12
#define DB R13
#define DO R14
#define CNT R15

// FWD is one step of the forward chain: it writes the smaller key of *FA
// and *FB to *FO with its value (a's, b's, or a + b on equal keys, the
// sum taken every step and kept only then) and advances each side whose
// key it wrote. Selects and advances are conditional moves: the keys
// interleave at random, and a branch on them would miss half the time.
#define FWD \
	MOVL    (FA), AX; \
	MOVL    (FB), BX; \
	MOVL    (FA)(DA*1), CX; \
	MOVSS   (FA)(DA*1), X0; \
	ADDSS   (FB)(DB*1), X0; \
	MOVL    X0, DX; \
	CMPL    AX, BX; \
	CMOVLHI (FB)(DB*1), CX; \
	CMOVLEQ DX, CX; \
	CMOVLHI BX, AX; \
	MOVL    AX, (FO); \
	MOVL    CX, (FO)(DO*1); \
	LEAQ    4(FA), AX; \
	LEAQ    4(FB), BX; \
	CMOVQLS AX, FA; \
	CMOVQCC BX, FB; \
	ADDQ    $4, FO

// BWD is FWD from the other end: it writes the larger key of *BA and *BB
// to *BO and steps back each side whose key it wrote.
#define BWD \
	MOVL    (BA), AX; \
	MOVL    (BB), BX; \
	MOVL    (BA)(DA*1), CX; \
	MOVSS   (BA)(DA*1), X1; \
	ADDSS   (BB)(DB*1), X1; \
	MOVL    X1, DX; \
	CMPL    AX, BX; \
	CMOVLCS (BB)(DB*1), CX; \
	CMOVLEQ DX, CX; \
	CMOVLCS BX, AX; \
	MOVL    AX, (BO); \
	MOVL    CX, (BO)(DO*1); \
	LEAQ    -4(BA), AX; \
	LEAQ    -4(BB), BX; \
	CMOVQCC AX, BA; \
	CMOVQLS BX, BB; \
	SUBQ    $4, BO

// FRONTLEFT sets AX to the bytes the forward chain may step without
// checking: the shorter of a[FA:ia] and b[FB:jb]. BACKLEFT sets BX to the
// backward chain's: the shorter of a[ia:BA+1] and b[jb:BB+1].
#define FRONTLEFT \
	MOVQ    amid-8(SP), AX; \
	SUBQ    FA, AX; \
	MOVQ    bmid-16(SP), BX; \
	SUBQ    FB, BX; \
	CMPQ    BX, AX; \
	CMOVQCS BX, AX

#define BACKLEFT \
	LEAQ    4(BA), BX; \
	SUBQ    amid-8(SP), BX; \
	LEAQ    4(BB), CX; \
	SUBQ    bmid-16(SP), CX; \
	CMPQ    CX, BX; \
	CMOVQCS CX, BX

// func mergeTwoChains(mk []int32, mv []float32, ak []int32, av []float32, bk []int32, bv []float32, ia, jb int) (i, j, o, ea, eb, eo int)
TEXT ·mergeTwoChains(SB), NOSPLIT, $16-208
	MOVQ mk_base+0(FP), FO
	MOVQ mv_base+24(FP), DO
	SUBQ FO, DO
	MOVQ ak_base+48(FP), FA
	MOVQ av_base+72(FP), DA
	SUBQ FA, DA
	MOVQ bk_base+96(FP), FB
	MOVQ bv_base+120(FP), DB
	SUBQ FB, DB

	// The backward chain starts at the last pair of a, of b and of mk.
	MOVQ ak_len+56(FP), AX
	LEAQ -4(FA)(AX*4), BA
	MOVQ bk_len+104(FP), AX
	LEAQ -4(FB)(AX*4), BB
	MOVQ mk_len+8(FP), AX
	LEAQ -4(FO)(AX*4), BO

	// amid and bmid point at a[ia] and b[jb], where the chains meet.
	MOVQ ia+144(FP), AX
	LEAQ (FA)(AX*4), AX
	MOVQ AX, amid-8(SP)
	MOVQ jb+152(FP), AX
	LEAQ (FB)(AX*4), AX
	MOVQ AX, bmid-16(SP)

	// Both chains, a step of each per iteration, in blocks as long as the
	// shortest of their four runs.
both:
	FRONTLEFT
	BACKLEFT
	CMPQ    BX, AX
	CMOVQCS BX, AX
	TESTQ   AX, AX
	JZ      front
	MOVQ    AX, CNT

bothstep:
	FWD
	BWD
	SUBQ $4, CNT
	JNZ  bothstep
	JMP  both

	// One chain has used up a run; the other goes on alone.
front:
	FRONTLEFT
	TESTQ AX, AX
	JZ    back
	MOVQ  AX, CNT

frontstep:
	FWD
	SUBQ $4, CNT
	JNZ  frontstep
	JMP  front

back:
	BACKLEFT
	TESTQ BX, BX
	JZ    done
	MOVQ  BX, CNT

backstep:
	BWD
	SUBQ $4, CNT
	JNZ  backstep
	JMP  back

done:
	MOVQ ak_base+48(FP), AX
	SUBQ AX, FA
	SHRQ $2, FA
	MOVQ FA, i+160(FP)
	LEAQ 4(BA), BA
	SUBQ AX, BA
	SHRQ $2, BA
	MOVQ BA, ea+184(FP)
	MOVQ bk_base+96(FP), AX
	SUBQ AX, FB
	SHRQ $2, FB
	MOVQ FB, j+168(FP)
	LEAQ 4(BB), BB
	SUBQ AX, BB
	SHRQ $2, BB
	MOVQ BB, eb+192(FP)
	MOVQ mk_base+0(FP), AX
	SUBQ AX, FO
	SHRQ $2, FO
	MOVQ FO, o+176(FP)
	LEAQ 4(BO), BO
	SUBQ AX, BO
	SHRQ $2, BO
	MOVQ BO, eo+200(FP)
	RET
