//go:build !purego

#include "textflag.h"

// func planeKernelAVX2(dst *float64, dstStride int, blocks *float64, blkStride, n int, wt *float64, cw, bl int)
//
// Eight blocks at a time, four lanes (positions) per YMM: for each
// group of four lanes, every block element i is broadcast and
// multiplied by the four lanes' weights wt[i*cw+4g:], and the products
// are added to that block's accumulator. Separate VMULPD and VADDPD,
// no FMA: each lane is the ascending-i chain of rounded products that
// planeKernelGo computes. The last chunk of eight is clamped to end at
// block n; blocks it shares with the previous chunk are recomputed and
// rewritten with the same values.
//
// Registers in the lane loop: AX = &block(j)[i], R13 = &block(j+4)[i],
// BX = block stride (bytes), R15 = 3 block strides, R14 = &wt[i*cw+4g],
// R9 = weight row (bytes), R10 = elements left; Y0-Y7 accumulate
// blocks j..j+7. R11 = j, R12 = 4g*8, CX = n-8, DX = dst stride (bytes).
TEXT ·planeKernelAVX2(SB), NOSPLIT, $0-64
	MOVQ dstStride+8(FP), DX
	SHLQ $3, DX
	MOVQ blkStride+24(FP), BX
	SHLQ $3, BX
	LEAQ (BX)(BX*2), R15
	MOVQ cw+48(FP), R9
	SHLQ $3, R9
	MOVQ n+32(FP), CX
	SUBQ $8, CX
	XORQ R11, R11

chunk:
	XORQ R12, R12

group:
	MOVQ R11, AX
	IMULQ BX, AX
	ADDQ blocks+16(FP), AX
	LEAQ (AX)(BX*4), R13
	MOVQ wt+40(FP), R14
	ADDQ R12, R14
	MOVQ bl+56(FP), R10
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

lane:
	VMOVUPD      (R14), Y8
	VBROADCASTSD (AX), Y9
	VMULPD       Y8, Y9, Y9
	VADDPD       Y9, Y0, Y0
	VBROADCASTSD (AX)(BX*1), Y10
	VMULPD       Y8, Y10, Y10
	VADDPD       Y10, Y1, Y1
	VBROADCASTSD (AX)(BX*2), Y11
	VMULPD       Y8, Y11, Y11
	VADDPD       Y11, Y2, Y2
	VBROADCASTSD (AX)(R15*1), Y12
	VMULPD       Y8, Y12, Y12
	VADDPD       Y12, Y3, Y3
	VBROADCASTSD (R13), Y13
	VMULPD       Y8, Y13, Y13
	VADDPD       Y13, Y4, Y4
	VBROADCASTSD (R13)(BX*1), Y14
	VMULPD       Y8, Y14, Y14
	VADDPD       Y14, Y5, Y5
	VBROADCASTSD (R13)(BX*2), Y15
	VMULPD       Y8, Y15, Y15
	VADDPD       Y15, Y6, Y6
	VBROADCASTSD (R13)(R15*1), Y9
	VMULPD       Y8, Y9, Y9
	VADDPD       Y9, Y7, Y7
	ADDQ         $8, AX
	ADDQ         $8, R13
	ADDQ         R9, R14
	DECQ         R10
	JNZ          lane

	// Store lanes 4g..4g+3 of blocks j..j+7.
	MOVQ    R11, AX
	IMULQ   DX, AX
	ADDQ    dst+0(FP), AX
	ADDQ    R12, AX
	LEAQ    (AX)(DX*4), R13
	LEAQ    (DX)(DX*2), R14
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, (AX)(DX*1)
	VMOVUPD Y2, (AX)(DX*2)
	VMOVUPD Y3, (AX)(R14*1)
	VMOVUPD Y4, (R13)
	VMOVUPD Y5, (R13)(DX*1)
	VMOVUPD Y6, (R13)(DX*2)
	VMOVUPD Y7, (R13)(R14*1)
	ADDQ    $32, R12
	CMPQ    R12, R9
	JLT     group

	// Next chunk of eight, the last one clamped to end at block n.
	CMPQ R11, CX
	JGE  done
	ADDQ $8, R11
	CMPQ R11, CX
	JLE  chunk
	MOVQ CX, R11
	JMP  chunk

done:
	VZEROUPPER
	RET
