//go:build !purego

#include "textflag.h"

// func resizeRowAVX2(dst, row0, row1 *uint8, idx *int32, masks *uint32, wxs *int32, n int, wy int32, window bool)
//
// Eight output columns per YMM, one int32 lane each. A row's bytes for
// the lanes are fetched one of two ways: in window mode each 128-bit
// half loads the 16 bytes at its group's base, and in gather mode
// VPGATHERDD loads the 4 bytes at each lane's x0 into that lane. Either
// way VPSHUFB by the columns' masks then puts p[x0] in the low word and
// p[x1] = p[x0+1] in the high word of each lane. The arithmetic is
// resizeRowGo's in int32 lanes: VPMULLD keeps the low 32 bits of
// products below 2^24, and VPSRAD is Go's signed >>. Every result lies
// between two source pixels, so the unsigned-saturating packs store it
// unchanged, as clamp8 does.
//
// Registers: SI = row0, DX = row1, DI = &dst[i], R8 = &idx[i/4] (window)
// or &idx[i] (gather), R9 = &masks[i], R10 = &wxs[i], CX = columns
// left, R11 = window; Y15 = wy, Y14 = 0xffff per lane.
TEXT ·resizeRowAVX2(SB), NOSPLIT, $0-61
	MOVQ         dst+0(FP), DI
	MOVQ         row0+8(FP), SI
	MOVQ         row1+16(FP), DX
	MOVQ         idx+24(FP), R8
	MOVQ         masks+32(FP), R9
	MOVQ         wxs+40(FP), R10
	MOVQ         n+48(FP), CX
	MOVL         wy+56(FP), AX
	MOVBQZX      window+60(FP), R11
	MOVD         AX, X15
	VPBROADCASTD X15, Y15
	VPCMPEQD     Y14, Y14, Y14
	VPSRLD       $16, Y14, Y14

loop:
	TESTQ R11, R11
	JZ    gather

	MOVL        (R8), AX
	MOVL        4(R8), BX
	VMOVDQU     (SI)(AX*1), X3
	VINSERTI128 $1, (SI)(BX*1), Y3, Y3
	VMOVDQU     (DX)(AX*1), X5
	VINSERTI128 $1, (DX)(BX*1), Y5, Y5
	ADDQ        $8, R8
	JMP         spread

gather:
	VMOVDQU    (R8), Y0
	VPCMPEQD   Y2, Y2, Y2
	VPGATHERDD Y2, (SI)(Y0*1), Y3
	VPCMPEQD   Y4, Y4, Y4
	VPGATHERDD Y4, (DX)(Y0*1), Y5
	ADDQ       $32, R8

spread:
	VMOVDQU (R9), Y0
	VMOVDQU (R10), Y1
	VPSHUFB Y0, Y3, Y3
	VPSHUFB Y0, Y5, Y5

	// top = p00 + ((p01-p00)*wx)>>16
	VPAND   Y14, Y3, Y6
	VPSRLD  $16, Y3, Y3
	VPSUBD  Y6, Y3, Y3
	VPMULLD Y1, Y3, Y3
	VPSRAD  $16, Y3, Y3
	VPADDD  Y6, Y3, Y3

	// bot = p10 + ((p11-p10)*wx)>>16
	VPAND   Y14, Y5, Y7
	VPSRLD  $16, Y5, Y5
	VPSUBD  Y7, Y5, Y5
	VPMULLD Y1, Y5, Y5
	VPSRAD  $16, Y5, Y5
	VPADDD  Y7, Y5, Y5

	// top + ((bot-top)*wy)>>16, packed to eight bytes.
	VPSUBD       Y3, Y5, Y5
	VPMULLD      Y15, Y5, Y5
	VPSRAD       $16, Y5, Y5
	VPADDD       Y3, Y5, Y5
	VEXTRACTI128 $1, Y5, X6
	VPACKUSDW    X6, X5, X5
	VPACKUSWB    X5, X5, X5
	MOVQ         X5, (DI)

	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $8, DI
	SUBQ $8, CX
	JNZ  loop
	VZEROUPPER
	RET

// Gray shuffles, the same in both 128-bit halves: lane k (pixel k of
// the half) takes words (r, b) of triple k, and words (g, g).
DATA grayRB<>+0(SB)/8, $0x8005800380028000
DATA grayRB<>+8(SB)/8, $0x800b800980088006
DATA grayRB<>+16(SB)/8, $0x8005800380028000
DATA grayRB<>+24(SB)/8, $0x800b800980088006
GLOBL grayRB<>(SB), RODATA|NOPTR, $32

DATA grayGG<>+0(SB)/8, $0x8004800480018001
DATA grayGG<>+8(SB)/8, $0x800a800a80078007
DATA grayGG<>+16(SB)/8, $0x8004800480018001
DATA grayGG<>+24(SB)/8, $0x800a800a80078007
GLOBL grayGG<>(SB), RODATA|NOPTR, $32

// func rgbToGrayAVX2(dst, pix *uint8, n int)
//
// Eight pixels per iteration: triples 0-3 load into the low 128-bit
// half and triples 4-7 (from byte 12) into the high half, each load 16
// bytes wide, so the last group reads 4 bytes past its 24. VPMADDWD
// forms 19595r + 7471b and 19235g + 19235g (= 38470g) per lane from
// the shuffled words; with 1<<15 the sum is at most 255<<16 + 1<<15,
// non-negative and exact in 32 bits, so the >>16 is rgbToGrayGo's and
// the result is at most 255, which the packs store unchanged.
//
// Registers: SI = &pix[3i], DI = &dst[i], CX = pixels left.
TEXT ·rgbToGrayAVX2(SB), NOSPLIT, $0-24
	MOVQ         dst+0(FP), DI
	MOVQ         pix+8(FP), SI
	MOVQ         n+16(FP), CX
	VMOVDQU      grayRB<>(SB), Y13
	VMOVDQU      grayGG<>(SB), Y12
	MOVL         $0x1d2f4c8b, AX
	MOVD         AX, X11
	VPBROADCASTD X11, Y11
	MOVL         $0x4b234b23, AX
	MOVD         AX, X10
	VPBROADCASTD X10, Y10
	MOVL         $0x8000, AX
	MOVD         AX, X9
	VPBROADCASTD X9, Y9

loop:
	VMOVDQU      (SI), X0
	VINSERTI128  $1, 12(SI), Y0, Y0
	VPSHUFB      Y13, Y0, Y1
	VPSHUFB      Y12, Y0, Y2
	VPMADDWD     Y11, Y1, Y1
	VPMADDWD     Y10, Y2, Y2
	VPADDD       Y2, Y1, Y1
	VPADDD       Y9, Y1, Y1
	VPSRLD       $16, Y1, Y1
	VEXTRACTI128 $1, Y1, X2
	VPACKUSDW    X2, X1, X1
	VPACKUSWB    X1, X1, X1
	MOVQ         X1, (DI)
	ADDQ         $24, SI
	ADDQ         $8, DI
	SUBQ         $8, CX
	JNZ          loop
	VZEROUPPER
	RET
