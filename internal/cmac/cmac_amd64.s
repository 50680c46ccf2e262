//go:build amd64 && !purego

#include "textflag.h"

// func hasAESNI() bool
// CPUID leaf 1 reports the AES instructions in ECX bit 25.
TEXT ·hasAESNI(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	SHRL $25, CX
	ANDL $1, CX
	MOVB CX, ret+0(FP)
	RET

// EXPAND derives the next round key in X0 from the previous one and
// stores it at off(BX): AESKEYGENASSIST puts SubWord(RotWord(w3)) ^ rcon
// in dword 3 of X1, PSHUFD broadcasts it, and the three shifted XORs
// turn (w0, w1, w2, w3) into (w0, w0^w1, w0^w1^w2, w0^w1^w2^w3)
// (FIPS-197 §5.2).
#define EXPAND(rcon, off) \
	AESKEYGENASSIST $rcon, X0, X1; \
	PSHUFD          $0xff, X1, X1; \
	MOVOU           X0, X2; \
	PSLLDQ          $4, X2; \
	PXOR            X2, X0; \
	PSLLDQ          $4, X2; \
	PXOR            X2, X0; \
	PSLLDQ          $4, X2; \
	PXOR            X2, X0; \
	PXOR            X1, X0; \
	MOVUPS          X0, off(BX)

// func expandKey(key *[16]byte, rk *[176]byte)
TEXT ·expandKey(SB), NOSPLIT, $0-16
	MOVQ   key+0(FP), AX
	MOVQ   rk+8(FP), BX
	MOVUPS (AX), X0
	MOVUPS X0, (BX)
	EXPAND(0x01, 16)
	EXPAND(0x02, 32)
	EXPAND(0x04, 48)
	EXPAND(0x08, 64)
	EXPAND(0x10, 80)
	EXPAND(0x20, 96)
	EXPAND(0x40, 112)
	EXPAND(0x80, 128)
	EXPAND(0x1b, 144)
	EXPAND(0x36, 160)
	RET

// func cbcMAC(rk *[176]byte, x *[16]byte, held *[16]byte, src []byte)
// X0 is the running state, X1..X11 the round keys. Each block costs one
// PXOR of the input with round key 0 (independent of the chain), one
// PXOR into the state, nine AESENC and one AESENCLAST.
TEXT ·cbcMAC(SB), NOSPLIT, $0-48
	MOVQ   rk+0(FP), AX
	MOVQ   x+8(FP), BX
	MOVQ   held+16(FP), DX
	MOVQ   src_base+24(FP), SI
	MOVQ   src_len+32(FP), CX
	SHRQ   $4, CX
	MOVUPS 0(AX), X1
	MOVUPS 16(AX), X2
	MOVUPS 32(AX), X3
	MOVUPS 48(AX), X4
	MOVUPS 64(AX), X5
	MOVUPS 80(AX), X6
	MOVUPS 96(AX), X7
	MOVUPS 112(AX), X8
	MOVUPS 128(AX), X9
	MOVUPS 144(AX), X10
	MOVUPS 160(AX), X11
	MOVUPS (BX), X0
	MOVUPS (DX), X12
	JMP    absorb

next:
	MOVUPS (SI), X12
	ADDQ   $16, SI

absorb:
	PXOR       X1, X12
	PXOR       X12, X0
	AESENC     X2, X0
	AESENC     X3, X0
	AESENC     X4, X0
	AESENC     X5, X0
	AESENC     X6, X0
	AESENC     X7, X0
	AESENC     X8, X0
	AESENC     X9, X0
	AESENC     X10, X0
	AESENCLAST X11, X0
	DECQ       CX
	JGE        next

	MOVUPS X0, (BX)
	RET
