#include "textflag.h"

// The inner loops of neighbor.go, in float64 lanes. Each lane does the
// portable loop's IEEE operations in its order and association, with no
// FMA and the left operand of each Go expression as the first source, so
// every stored or returned value has the portable bits.
//
// Two tiers. AVX2: the range pass and the gather, four lanes per
// instruction, in VEX encodings only (one legacy-SSE instruction among them
// costs an SSE/AVX state transition per iteration). Survivors are
// compacted with the controls of compact[mask], indexed by the VMOVMSKPD
// keep mask, stored at full width at the survivor count, which then
// advances by POPCNT of the mask. AVX-512: the range pass, the gather and
// the energy pass, eight lanes per instruction; the first two compact in
// register with VCOMPRESSPD/VPCOMPRESSD, whole groups load unmasked, and
// the last group of each loop runs under an opmask of its remaining lanes,
// so no scalar tail is left.
//
// A full-width store writes up to 3 (AVX2) or 7 (AVX-512) slots past the
// count. The count never exceeds the number of candidates already read, so
// the stores end inside the slots the caller provides.

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

// func rangeAVX2(cx, cy, cz *float64, typ *int32, n int, px, py, pz, cutoff2 float64, r2 *float64, col *int32) (m int)
TEXT ·rangeAVX2(SB), NOSPLIT, $0-96
	MOVQ cx+0(FP), SI
	MOVQ cy+8(FP), DI
	MOVQ cz+16(FP), R8
	MOVQ typ+24(FP), R13
	MOVQ n+32(FP), CX
	VBROADCASTSD px+40(FP), Y0
	VBROADCASTSD py+48(FP), Y1
	VBROADCASTSD pz+56(FP), Y2
	VBROADCASTSD cutoff2+64(FP), Y3
	MOVQ r2+72(FP), R10
	MOVQ col+80(FP), R9
	LEAQ ·compact(SB), R11
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
	SHLQ $6, AX
	VMOVDQU (R11)(AX*1), Y7 // compact[mask].perm
	VPERMD Y6, Y7, Y6
	VMOVUPD Y6, (R10)(BX*8)
	VMOVDQU (R13), X8
	VPERMILPS 32(R11)(AX*1), X8, X8 // compact[mask].lane
	VMOVDQU X8, (R9)(BX*4)
	POPCNTQ DX, DX
	ADDQ DX, BX
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R8
	ADDQ $16, R13
	SUBQ $4, CX
	JGT rangeLoop

rangeDone:
	VZEROUPPER
	MOVQ BX, m+88(FP)
	RET

// RANGE8 finishes a group of eight candidates whose x, y, z are in Z6, Z7,
// Z8 and types in Y9, with the hit mask in K2: it stores the compacted r2
// and columns at the count BX.
#define RANGE8 \
	VCOMPRESSPD.Z Z6, K2, Z6; \
	VMOVUPD Z6, (R10)(BX*8); \
	VPCOMPRESSD.Z Y9, K2, Y9; \
	VMOVDQU Y9, (R9)(BX*4)

// R2 turns Z6, Z7, Z8 from x, y, z into dx*dx, dy*dy, dz*dz and Z6 into
// r2 = dx*dx + dy*dy + dz*dz.
#define R2 \
	VSUBPD Z0, Z6, Z6; \
	VSUBPD Z1, Z7, Z7; \
	VSUBPD Z2, Z8, Z8; \
	VMULPD Z6, Z6, Z6; \
	VMULPD Z7, Z7, Z7; \
	VMULPD Z8, Z8, Z8; \
	VADDPD Z7, Z6, Z6; \
	VADDPD Z8, Z6, Z6

// func rangeAVX512(cx, cy, cz *float64, typ *int32, n int, px, py, pz, cutoff2 float64, r2 *float64, col *int32) (m int)
TEXT ·rangeAVX512(SB), NOSPLIT, $0-96
	MOVQ cx+0(FP), SI
	MOVQ cy+8(FP), DI
	MOVQ cz+16(FP), R8
	MOVQ typ+24(FP), R13
	MOVQ n+32(FP), CX
	VBROADCASTSD px+40(FP), Z0
	VBROADCASTSD py+48(FP), Z1
	VBROADCASTSD pz+56(FP), Z2
	VBROADCASTSD cutoff2+64(FP), Z3
	MOVQ r2+72(FP), R10
	MOVQ col+80(FP), R9
	XORQ AX, AX // candidate index
	XORQ BX, BX // count
	MOVQ CX, R11
	SUBQ $7, R11 // whole groups while AX < n-7
	CMPQ AX, R11
	JGE range512Tail

	// Whole groups load without a mask: a masked load costs a port-0/5
	// µop more.
range512Loop:
	VMOVUPD (SI)(AX*8), Z6
	VMOVUPD (DI)(AX*8), Z7
	VMOVUPD (R8)(AX*8), Z8
	VMOVDQU (R13)(AX*4), Y9
	R2
	VCMPPD $0x1a, Z3, Z6, K2 // NGT_UQ: !(r2 > cutoff2), true for NaN
	RANGE8
	KMOVW K2, DX
	POPCNTL DX, DX
	ADDQ DX, BX
	ADDQ $8, AX
	CMPQ AX, R11
	JLT range512Loop

	// The last 1-7 candidates, under the mask K1 of their lanes.
range512Tail:
	MOVQ CX, DX
	SUBQ AX, DX
	JLE range512Done
	LEAQ ·laneMask(SB), R11
	KMOVW (R11)(DX*2), K1
	VMOVUPD.Z (SI)(AX*8), K1, Z6
	VMOVUPD.Z (DI)(AX*8), K1, Z7
	VMOVUPD.Z (R8)(AX*8), K1, Z8
	VMOVDQU32.Z (R13)(AX*4), K1, Y9
	R2
	VCMPPD $0x1a, Z3, Z6, K1, K2
	RANGE8
	KMOVW K2, DX
	POPCNTL DX, DX
	ADDQ DX, BX

range512Done:
	VZEROUPPER
	MOVQ BX, m+88(FP)
	RET

// The energy pass, eight hits per instruction. Registers: Z0 and Z1 the
// row's A and B lanes, Z2 minDist2, Z3 1 — all broadcast — and X7 and X8
// the two poses' accumulators.
//
// LJ computes a group's Lennard-Jones terms into Z12 under opmask k, the
// lanes outside k +0: the zero-masked loads make an idle lane's r2 0,
// clamped like any other, and its term is zeroed at the end. VMAXPD with minDist2 first returns r2 unless
// minDist2 > r2, as the Go clamp does, NaN included.
#define LJ(r2p, colp, k) \
	VMOVUPD.Z (r2p), k, Z9; \
	VMAXPD Z9, Z2, Z9; \
	VDIVPD Z9, Z3, Z9; \
	VMULPD Z9, Z9, Z10; \
	VMULPD Z9, Z10, Z10; \
	VPMOVZXDQ.Z (colp), k, Z11; \
	VPERMPD Z1, Z11, Z12; \
	VPERMPD Z0, Z11, Z11; \
	VMULPD Z10, Z11, Z11; \
	VSUBPD Z12, Z11, Z11; \
	VMULPD.Z Z11, Z10, k, Z12

// SUM8 adds the eight float64s at buf to acc, in order. buf holds a group's
// terms, stored there so the adds read them with a load instead of a
// port-5 shuffle each. An idle lane adds +0, which leaves every
// accumulator that is not -0 unchanged; an accumulator starts at +0 and a
// sum is -0 only when both addends are, so it never is.
#define SUM8(buf, acc) \
	VADDSD (buf), acc, acc; \
	VADDSD 8(buf), acc, acc; \
	VADDSD 16(buf), acc, acc; \
	VADDSD 24(buf), acc, acc; \
	VADDSD 32(buf), acc, acc; \
	VADDSD 40(buf), acc, acc; \
	VADDSD 48(buf), acc, acc; \
	VADDSD 56(buf), acc, acc

// GROUPMASK loads into k the opmask of the first min(rem, 8) lanes.
#define GROUPMASK(rem, k) \
	MOVL $8, AX; \
	CMPQ rem, AX; \
	CMOVQLT rem, AX; \
	KMOVW (R12)(AX*2), k

// func energyAVX512(row *ljRow, ra *float64, ca *int32, ma int, rb *float64, cb *int32, mb int, ea, eb float64) (sa, sb float64)
TEXT ·energyAVX512(SB), NOSPLIT, $192-88
	// R13 and R14 = R13+64: each pose's term buffer, 64-byte aligned in
	// the frame.
	LEAQ 63(SP), R13
	ANDQ $-64, R13
	LEAQ 64(R13), R14
	MOVQ row+0(FP), AX
	VMOVUPD (AX), Z0
	VMOVUPD 64(AX), Z1
	LEAQ ·energyConst(SB), AX
	VBROADCASTSD (AX), Z2
	VBROADCASTSD 8(AX), Z3
	MOVQ ra+8(FP), SI
	MOVQ ca+16(FP), DI
	MOVQ ma+24(FP), CX
	MOVQ rb+32(FP), R9
	MOVQ cb+40(FP), R10
	MOVQ mb+48(FP), DX
	VMOVSD ea+56(FP), X7
	VMOVSD eb+64(FP), X8
	LEAQ ·laneMask(SB), R12

	// Each round scores a group of each pose that has hits left.
ljLoop:
	CMPQ CX, $0
	JLE ljB
	GROUPMASK(CX, K1)
	LJ(SI, DI, K1)
	VMOVAPD Z12, (R13)
	SUM8(R13, X7)
	ADDQ $64, SI
	ADDQ $32, DI
	SUBQ $8, CX

ljB:
	CMPQ DX, $0
	JLE ljNext
	GROUPMASK(DX, K2)
	LJ(R9, R10, K2)
	VMOVAPD Z12, (R14)
	SUM8(R14, X8)
	ADDQ $64, R9
	ADDQ $32, R10
	SUBQ $8, DX

ljNext:
	CMPQ CX, $0
	JGT ljLoop
	CMPQ DX, $0
	JGT ljLoop

	VZEROUPPER
	VMOVSD X7, sa+72(FP)
	VMOVSD X8, sb+80(FP)
	RET

// GATHER8 finishes a group of eight list atoms whose x, y, z are in Z10,
// Z11, Z12: the squared gap g2 of each to the pose box, kept where
// !(g2 > lim) under write mask km into K2, the kept coordinates and list
// indices (Z8) stored compacted at the count BX.
#define GATHER8(km) \
	VSUBPD Z0, Z10, Z13; \
	VPANDQ Z7, Z13, Z13; \
	VSUBPD Z3, Z13, Z13; \
	VPANDQ Z7, Z13, Z14; \
	VADDPD Z14, Z13, Z13; \
	VMULPD Z13, Z13, Z13; \
	VSUBPD Z1, Z11, Z14; \
	VPANDQ Z7, Z14, Z14; \
	VSUBPD Z4, Z14, Z14; \
	VPANDQ Z7, Z14, Z15; \
	VADDPD Z15, Z14, Z14; \
	VMULPD Z14, Z14, Z14; \
	VADDPD Z14, Z13, Z13; \
	VSUBPD Z2, Z12, Z14; \
	VPANDQ Z7, Z14, Z14; \
	VSUBPD Z5, Z14, Z14; \
	VPANDQ Z7, Z14, Z15; \
	VADDPD Z15, Z14, Z14; \
	VMULPD Z14, Z14, Z14; \
	VADDPD Z14, Z13, Z13; \
	VCMPPD $0x1a, Z6, Z13, km, K2; \
	VCOMPRESSPD.Z Z10, K2, Z10; \
	VMOVUPD Z10, (R9)(BX*8); \
	VCOMPRESSPD.Z Z11, K2, Z11; \
	VMOVUPD Z11, (R10)(BX*8); \
	VCOMPRESSPD.Z Z12, K2, Z12; \
	VMOVUPD Z12, (R11)(BX*8); \
	VPCOMPRESSD.Z Y8, K2, Y13; \
	VMOVDQU Y13, (R12)(BX*4); \
	KMOVW K2, DX; \
	POPCNTL DX, DX; \
	ADDQ DX, BX

// func gatherAVX512(x, y, z *float64, n int, c, h *[3]float64, lim float64, ox, oy, oz *float64, oi *int32, k0 int) (m int)
TEXT ·gatherAVX512(SB), NOSPLIT, $0-104
	MOVQ c+32(FP), AX
	VBROADCASTSD (AX), Z0
	VBROADCASTSD 8(AX), Z1
	VBROADCASTSD 16(AX), Z2
	MOVQ h+40(FP), AX
	VBROADCASTSD (AX), Z3
	VBROADCASTSD 8(AX), Z4
	VBROADCASTSD 16(AX), Z5
	VBROADCASTSD lim+48(FP), Z6
	VPTERNLOGQ $0xff, Z7, Z7, Z7
	VPSRLQ $1, Z7, Z7 // every bit but the sign: VPANDQ with it is Abs
	LEAQ ·laneIndex(SB), AX
	VMOVDQU (AX), Y8
	VPBROADCASTD k0+88(FP), Y9
	VPADDD Y9, Y8, Y8 // list index of each lane
	MOVL $8, AX
	VPBROADCASTD AX, Y9
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), DI
	MOVQ z+16(FP), R8
	MOVQ n+24(FP), CX
	MOVQ ox+56(FP), R9
	MOVQ oy+64(FP), R10
	MOVQ oz+72(FP), R11
	MOVQ oi+80(FP), R12
	XORQ AX, AX // atom index
	XORQ BX, BX // count
	MOVQ CX, R13
	SUBQ $7, R13 // whole groups while AX < n-7
	KXNORW K1, K1, K1
	CMPQ AX, R13
	JGE gather512Tail

gather512Loop:
	VMOVUPD (SI)(AX*8), Z10
	VMOVUPD (DI)(AX*8), Z11
	VMOVUPD (R8)(AX*8), Z12
	GATHER8(K1)
	VPADDD Y9, Y8, Y8
	ADDQ $8, AX
	CMPQ AX, R13
	JLT gather512Loop

	// The last 1-7 atoms, under the mask K1 of their lanes.
gather512Tail:
	MOVQ CX, DX
	SUBQ AX, DX
	JLE gather512Done
	LEAQ ·laneMask(SB), R13
	KMOVW (R13)(DX*2), K1
	VMOVUPD.Z (SI)(AX*8), K1, Z10
	VMOVUPD.Z (DI)(AX*8), K1, Z11
	VMOVUPD.Z (R8)(AX*8), K1, Z12
	GATHER8(K1)

gather512Done:
	VZEROUPPER
	MOVQ BX, m+96(FP)
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
	LEAQ ·compact(SB), R13
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
	SHLQ $6, AX
	VMOVDQU (R13)(AX*1), Y13 // compact[mask].perm
	VPERMD Y10, Y13, Y10
	VMOVUPD Y10, (R9)(BX*8)
	VPERMD Y11, Y13, Y11
	VMOVUPD Y11, (R10)(BX*8)
	VPERMD Y12, Y13, Y12
	VMOVUPD Y12, (R11)(BX*8)
	VPADDD 32(R13)(AX*1), X8, X13 // lane 0's index + compact[mask].lane
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
