//go:build !purego

#include "go_asm.h"
#include "textflag.h"

// func histIndexAVX2(offs *int32, left, up, down *uint8, n int)
//
// Eight pixels per iteration, one int32 lane each: VPMOVZXBD widens the
// eight bytes at left+2 (right neighbours), left, down and up, and
// dx = r-l, dy = d-u give histLUTIndex = 511*dy + dx + 130560 as
// (dy<<9) - dy + dx + 130560, then the byte offset 24*index as
// ((index<<1) + index)<<3. Every value is below 2^23, so the int32 lanes
// are exact. When n is not a multiple of 8, the last iteration steps
// back to end at n and rewrites up to seven offsets with the same
// values.
//
// Registers: SI = &left[i], BX = &up[i], DX = &down[i], DI = &offs[i],
// CX = pixels left; Y15 = 130560 per lane.
TEXT ·histIndexAVX2(SB), NOSPLIT, $0-40
	MOVQ         offs+0(FP), DI
	MOVQ         left+8(FP), SI
	MOVQ         up+16(FP), BX
	MOVQ         down+24(FP), DX
	MOVQ         n+32(FP), CX
	MOVL         $130560, AX
	MOVD         AX, X15
	VPBROADCASTD X15, Y15

loop:
	VPMOVZXBD 2(SI), Y0
	VPMOVZXBD (SI), Y1
	VPSUBD    Y1, Y0, Y0
	VPMOVZXBD (DX), Y1
	VPMOVZXBD (BX), Y2
	VPSUBD    Y2, Y1, Y1
	VPSLLD    $9, Y1, Y2
	VPSUBD    Y1, Y2, Y1
	VPADDD    Y0, Y1, Y1
	VPADDD    Y15, Y1, Y1
	VPSLLD    $1, Y1, Y0
	VPADDD    Y0, Y1, Y1
	VPSLLD    $3, Y1, Y1
	VMOVDQU   Y1, (DI)
	ADDQ      $8, SI
	ADDQ      $8, BX
	ADDQ      $8, DX
	ADDQ      $32, DI
	SUBQ      $8, CX
	JZ        done
	CMPQ      CX, $8
	JGE       loop

	// 1-7 pixels left: back up 8-CX so the last iteration ends at n.
	MOVQ $8, AX
	SUBQ CX, AX
	SUBQ AX, SI
	SUBQ AX, BX
	SUBQ AX, DX
	SHLQ $2, AX
	SUBQ AX, DI
	MOVQ $8, CX
	JMP  loop

done:
	VZEROUPPER
	RET

// CELL adds one pixel of one cell, whose entry offset is at off(R9),
// to that cell's bin accumulators a0 (bins 0-3), a1 (4-7) and a2 (8):
// w0 to bin b0, w1 to bin b1 and +0 to the other seven. The 128-bit
// VEX load of (w0, w1) zeroes Y12's upper half, which is where the
// perm vectors' index 4 reads its zero; b0<<7 selects the pixel's
// three perm vectors.
#define CELL(off, a0, a1, a2) \
	MOVL    off(R9), AX; \
	VMOVUPD (SI)(AX*1), X12; \
	MOVWQZX 16(SI)(AX*1), BX; \
	SHLQ    $7, BX; \
	VMOVDQU (DX)(BX*1), Y13; \
	VPERMPS Y12, Y13, Y13; \
	VADDPD  Y13, a0, a0; \
	VMOVDQU 32(DX)(BX*1), Y14; \
	VPERMPS Y12, Y14, Y14; \
	VADDPD  Y14, a1, a1; \
	VMOVDQU 64(DX)(BX*1), Y15; \
	VPERMPS Y12, Y15, Y15; \
	VADDPD  Y15, a2, a2

// STORE writes one cell's nine bins at off(DI).
#define STORE(off, a0, a1, a2, x2) \
	VMOVUPD a0, off(DI); \
	VMOVUPD a1, (off+32)(DI); \
	VMOVSD  x2, (off+64)(DI)

// func cellGroupsAVX2(hist *float64, lut *histEntry, perm *[4][8]int32, offs *int32, groups int)
//
// Four adjacent cells per group, each with its nine bins in three YMM
// accumulators (Y0-Y11) for the whole cell, which takes its 64 pixels
// in y-major, x-ascending order, the order cellRowHistogramsLUT adds
// them in; the four cells interleave pixel by pixel so their add
// chains overlap. Each pixel adds w0 or w1 or +0 to every bin, and
// adding +0 to a non-negative float64 leaves it unchanged, so every bin
// takes the scalar body's increments in its order, and no FMA rounds
// anything differently. The histograms are stored, not added, at the
// end.
//
// Registers: DI = &hist[group], SI = lut, DX = perm, R8 =
// &offs[group's first pixel], R9 = &offs[step], CX = groups left,
// R10/R11 = rows/pixels left in the cell.
TEXT ·cellGroupsAVX2(SB), NOSPLIT, $0-40
	MOVQ hist+0(FP), DI
	MOVQ lut+8(FP), SI
	MOVQ perm+16(FP), DX
	MOVQ offs+24(FP), R8
	MOVQ groups+32(FP), CX

group:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	MOVQ R8, R9
	MOVQ $8, R10

row:
	MOVQ $8, R11

pixel:
	CELL(0, Y0, Y1, Y2)
	CELL(32, Y3, Y4, Y5)
	CELL(64, Y6, Y7, Y8)
	CELL(96, Y9, Y10, Y11)
	ADDQ $4, R9
	DECQ R11
	JNZ  pixel
	ADDQ $(const_histChunk*4-32), R9
	DECQ R10
	JNZ  row

	STORE(0, Y0, Y1, Y2, X2)
	STORE(72, Y3, Y4, Y5, X5)
	STORE(144, Y6, Y7, Y8, X8)
	STORE(216, Y9, Y10, Y11, X11)
	ADDQ $288, DI
	ADDQ $128, R8
	DECQ CX
	JNZ  group
	VZEROUPPER
	RET
