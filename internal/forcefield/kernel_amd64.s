#include "textflag.h"

// The candidate loops of neighbor.go, four float64 lanes per instruction.
// Each lane does the portable loop's IEEE operations in its order and
// association, with no FMA, so every stored value has the portable bits.
// The loops use VEX encodings only: one legacy-SSE instruction among them
// costs an SSE/AVX state transition per iteration.
//
// Survivors are compacted with a VPERMD control from compactPerm, indexed
// by the VMOVMSKPD keep mask, and stored at full width at the survivor
// count, which then advances by POPCNT of the mask. A full-width store
// writes up to 3 slots past the count; that is safe because the count
// never exceeds the number of candidates already read, so the stores end
// inside the n slots the caller provides.

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET

// func rangeAVX2(cx, cy, cz *float64, n int, px, py, pz, cutoff2 float64, hit *int32, r2 *float64) (m int)
TEXT ·rangeAVX2(SB), NOSPLIT, $0-88
	MOVQ cx+0(FP), SI
	MOVQ cy+8(FP), DI
	MOVQ cz+16(FP), R8
	MOVQ n+24(FP), CX
	VBROADCASTSD px+32(FP), Y0
	VBROADCASTSD py+40(FP), Y1
	VBROADCASTSD pz+48(FP), Y2
	VBROADCASTSD cutoff2+56(FP), Y3
	MOVQ hit+64(FP), R9
	MOVQ r2+72(FP), R10
	LEAQ ·compactPerm(SB), R11
	LEAQ ·compactLane(SB), R12
	VPXOR X4, X4, X4 // index of lane 0, in every lane
	MOVQ $4, AX
	VMOVQ AX, X5
	VPBROADCASTD X5, X5
	XORQ BX, BX // count
	TESTQ CX, CX
	JLE rangeDone

rangeLoop:
	VMOVUPD (SI), Y6
	VSUBPD Y0, Y6, Y6 // dx = x - px
	VMOVUPD (DI), Y7
	VSUBPD Y1, Y7, Y7
	VMOVUPD (R8), Y8
	VSUBPD Y2, Y8, Y8
	VMULPD Y6, Y6, Y6
	VMULPD Y7, Y7, Y7
	VMULPD Y8, Y8, Y8
	VADDPD Y7, Y6, Y6 // dx*dx + dy*dy
	VADDPD Y8, Y6, Y6 // ... + dz*dz
	VCMPPD $0x1a, Y3, Y6, Y7 // NGT_UQ: !(r2 > cutoff2), true for NaN
	VMOVMSKPD Y7, DX
	MOVQ DX, AX
	SHLQ $4, AX
	VMOVDQU (R11)(AX*2), Y7
	VPERMD Y6, Y7, Y6
	VMOVUPD Y6, (R10)(BX*8)
	VPADDD (R12)(AX*1), X4, X7
	VMOVDQU X7, (R9)(BX*4)
	POPCNTQ DX, DX
	ADDQ DX, BX
	VPADDD X5, X4, X4
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R8
	SUBQ $4, CX
	JGT rangeLoop

rangeDone:
	VZEROUPPER
	MOVQ BX, m+80(FP)
	RET

// func gatherAVX2(x, y, z *float64, n int, c, h *[3]float64, lim float64, ox, oy, oz *float64, oi *int32, k0 int) (m int)
TEXT ·gatherAVX2(SB), NOSPLIT, $0-104
	MOVQ c+32(FP), AX
	VBROADCASTSD (AX), Y0
	VBROADCASTSD 8(AX), Y1
	VBROADCASTSD 16(AX), Y2
	MOVQ h+40(FP), AX
	VBROADCASTSD (AX), Y3
	VBROADCASTSD 8(AX), Y4
	VBROADCASTSD 16(AX), Y5
	VBROADCASTSD lim+48(FP), Y6
	VPCMPEQQ Y7, Y7, Y7
	VPSRLQ $1, Y7, Y7 // every bit but the sign: VANDPD with it is Abs
	MOVQ k0+88(FP), AX
	VMOVQ AX, X8
	VPBROADCASTD X8, X8 // list index of lane 0, in every lane
	MOVQ $4, AX
	VMOVQ AX, X9
	VPBROADCASTD X9, X9
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), DI
	MOVQ z+16(FP), R8
	MOVQ n+24(FP), CX
	MOVQ ox+56(FP), R9
	MOVQ oy+64(FP), R10
	MOVQ oz+72(FP), R11
	MOVQ oi+80(FP), R12
	LEAQ ·compactPerm(SB), R13
	LEAQ ·compactLane(SB), R14
	XORQ BX, BX // count
	TESTQ CX, CX
	JLE gatherDone

gatherLoop:
	VMOVUPD (SI), Y10
	VMOVUPD (DI), Y11
	VMOVUPD (R8), Y12
	VSUBPD Y0, Y10, Y13
	VANDPD Y7, Y13, Y13
	VSUBPD Y3, Y13, Y13 // gx = |x - cx| - hx
	VANDPD Y7, Y13, Y14
	VADDPD Y14, Y13, Y13 // gx += |gx|
	VMULPD Y13, Y13, Y13
	VSUBPD Y1, Y11, Y14
	VANDPD Y7, Y14, Y14
	VSUBPD Y4, Y14, Y14
	VANDPD Y7, Y14, Y15
	VADDPD Y15, Y14, Y14
	VMULPD Y14, Y14, Y14
	VADDPD Y14, Y13, Y13 // gx*gx + gy*gy
	VSUBPD Y2, Y12, Y14
	VANDPD Y7, Y14, Y14
	VSUBPD Y5, Y14, Y14
	VANDPD Y7, Y14, Y15
	VADDPD Y15, Y14, Y14
	VMULPD Y14, Y14, Y14
	VADDPD Y14, Y13, Y13 // ... + gz*gz
	VCMPPD $0x1a, Y6, Y13, Y13 // NGT_UQ: !(g2 > lim)
	VMOVMSKPD Y13, DX
	MOVQ DX, AX
	SHLQ $4, AX
	VMOVDQU (R13)(AX*2), Y13
	VPERMD Y10, Y13, Y10
	VMOVUPD Y10, (R9)(BX*8)
	VPERMD Y11, Y13, Y11
	VMOVUPD Y11, (R10)(BX*8)
	VPERMD Y12, Y13, Y12
	VMOVUPD Y12, (R11)(BX*8)
	VPADDD (R14)(AX*1), X8, X13
	VMOVDQU X13, (R12)(BX*4)
	POPCNTQ DX, DX
	ADDQ DX, BX
	VPADDD X9, X8, X8
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R8
	SUBQ $4, CX
	JGT gatherLoop

gatherDone:
	VZEROUPPER
	MOVQ BX, m+96(FP)
	RET
