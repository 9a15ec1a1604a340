//go:build !purego

#include "go_asm.h"
#include "textflag.h"

// The block normalization kernel. Lanes are blocks: one YMM holds
// element j of four adjacent blocks, so each block's L2Hys chains stay
// in their own lane and add in the scalar body's order. The caller
// transposes two cell rows into soa (bin b of cell i of row r at float
// (r*9+b)*normCells+i), where element j of block i is one unaligned
// load away: row j/18, bin j%9, cell i+(j%18)/9. SOA(rb, dc) is that
// load's byte offset from the first lane's cell, rb = row*9+bin.
#define SOA(rb, dc) ((rb)*const_normCells*8+(dc)*8)

// SQ4 is the first pass for element o of four groups: Y0-Y3 += x*x,
// a separate multiply and add, as ss += float64(x * x).
#define SQ4(o) \
	VMOVUPD (o)(SI), Y4; \
	VMOVUPD (o+32)(SI), Y5; \
	VMOVUPD (o+64)(SI), Y6; \
	VMOVUPD (o+96)(SI), Y7; \
	VMULPD  Y4, Y4, Y4; \
	VMULPD  Y5, Y5, Y5; \
	VMULPD  Y6, Y6, Y6; \
	VMULPD  Y7, Y7, Y7; \
	VADDPD  Y4, Y0, Y0; \
	VADDPD  Y5, Y1, Y1; \
	VADDPD  Y6, Y2, Y2; \
	VADDPD  Y7, Y3, Y3

// CLIP4 is the second pass for element o of four groups: v =
// min(x*inv, clip) with inv in Y0-Y3, and Y8-Y11 += v*v. VMINPD
// returns its second source (v) unless the clip is below it, so a NaN
// v stays NaN as in Go's min.
#define CLIP4(o) \
	VMOVUPD (o)(SI), Y4; \
	VMOVUPD (o+32)(SI), Y5; \
	VMOVUPD (o+64)(SI), Y6; \
	VMOVUPD (o+96)(SI), Y7; \
	VMULPD  Y0, Y4, Y4; \
	VMULPD  Y1, Y5, Y5; \
	VMULPD  Y2, Y6, Y6; \
	VMULPD  Y3, Y7, Y7; \
	VMINPD  Y4, Y13, Y4; \
	VMINPD  Y5, Y13, Y5; \
	VMINPD  Y6, Y13, Y6; \
	VMINPD  Y7, Y13, Y7; \
	VMULPD  Y4, Y4, Y4; \
	VMULPD  Y5, Y5, Y5; \
	VMULPD  Y6, Y6, Y6; \
	VMULPD  Y7, Y7, Y7; \
	VADDPD  Y4, Y8, Y8; \
	VADDPD  Y5, Y9, Y9; \
	VADDPD  Y6, Y10, Y10; \
	VADDPD  Y7, Y11, Y11

// SQ1 and CLIP1 are SQ4 and CLIP4 for one group.
#define SQ1(o) \
	VMOVUPD (o)(SI), Y4; \
	VMULPD  Y4, Y4, Y4; \
	VADDPD  Y4, Y0, Y0

#define CLIP1(o) \
	VMOVUPD (o)(SI), Y4; \
	VMULPD  Y0, Y4, Y4; \
	VMINPD  Y4, Y13, Y4; \
	VMULPD  Y4, Y4, Y4; \
	VADDPD  Y4, Y8, Y8

// OUT writes elements o0-o3 (four consecutive j) of the group whose
// lanes start g bytes into the SoA: it recomputes each v = min(x*inv,
// clip) bitwise as the second pass did, scales it by inv2 (the final
// v *= inv), transposes the 4x4 tile so each register holds one
// block's four elements, and stores the blocks at d, d+288, d+576 and
// d+864 (blocks are 36 floats apart).
#define OUT(o0, o1, o2, o3, g, inv, inv2, d) \
	VMOVUPD    (o0+g)(SI), Y4; \
	VMOVUPD    (o1+g)(SI), Y5; \
	VMOVUPD    (o2+g)(SI), Y6; \
	VMOVUPD    (o3+g)(SI), Y7; \
	VMULPD     inv, Y4, Y4; \
	VMULPD     inv, Y5, Y5; \
	VMULPD     inv, Y6, Y6; \
	VMULPD     inv, Y7, Y7; \
	VMINPD     Y4, Y13, Y4; \
	VMINPD     Y5, Y13, Y5; \
	VMINPD     Y6, Y13, Y6; \
	VMINPD     Y7, Y13, Y7; \
	VMULPD     inv2, Y4, Y4; \
	VMULPD     inv2, Y5, Y5; \
	VMULPD     inv2, Y6, Y6; \
	VMULPD     inv2, Y7, Y7; \
	VUNPCKLPD  Y5, Y4, Y12; \
	VUNPCKHPD  Y5, Y4, Y14; \
	VUNPCKLPD  Y7, Y6, Y4; \
	VUNPCKHPD  Y7, Y6, Y5; \
	VPERM2F128 $0x20, Y4, Y12, Y6; \
	VPERM2F128 $0x20, Y5, Y14, Y7; \
	VPERM2F128 $0x31, Y4, Y12, Y4; \
	VPERM2F128 $0x31, Y5, Y14, Y5; \
	VMOVUPD    Y6, (d)(DI); \
	VMOVUPD    Y7, (d+288)(DI); \
	VMOVUPD    Y4, (d+576)(DI); \
	VMOVUPD    Y5, (d+864)(DI)

// INVSQRT sets r = 1/sqrt(r+eps), each a separate rounding, as
// 1 / math.Sqrt(ss+eps).
#define INVSQRT(r) \
	VADDPD normEps<>(SB), r, r; \
	VSQRTPD r, r; \
	VMOVUPD normOne<>(SB), Y15; \
	VDIVPD  r, Y15, r

// TRANSPOSE4 moves bins b..b+3 of the four cells at R8 (72 bytes
// apart) to SoA rows b..b+3 at R9.
#define TRANSPOSE4(b) \
	VMOVUPD    (8*b)(R8), Y4; \
	VMOVUPD    (8*b+72)(R8), Y5; \
	VMOVUPD    (8*b+144)(R8), Y6; \
	VMOVUPD    (8*b+216)(R8), Y7; \
	VUNPCKLPD  Y5, Y4, Y12; \
	VUNPCKHPD  Y5, Y4, Y14; \
	VUNPCKLPD  Y7, Y6, Y4; \
	VUNPCKHPD  Y7, Y6, Y5; \
	VPERM2F128 $0x20, Y4, Y12, Y6; \
	VPERM2F128 $0x20, Y5, Y14, Y7; \
	VPERM2F128 $0x31, Y4, Y12, Y4; \
	VPERM2F128 $0x31, Y5, Y14, Y5; \
	VMOVUPD    Y6, SOA(b, 0)(R9); \
	VMOVUPD    Y7, SOA(b+1, 0)(R9); \
	VMOVUPD    Y4, SOA(b+2, 0)(R9); \
	VMOVUPD    Y5, SOA(b+3, 0)(R9)

// TRANSPOSE8 moves bin 8 of the four cells at R8 to SoA row 8 at R9.
#define TRANSPOSE8 \
	VMOVSD      64(R8), X4; \
	VMOVHPD     136(R8), X4, X4; \
	VMOVSD      208(R8), X5; \
	VMOVHPD     280(R8), X5, X5; \
	VINSERTF128 $1, X5, Y4, Y4; \
	VMOVUPD     Y4, SOA(8, 0)(R9)

// MOVECELL moves the nine bins of the one cell at R8 to SoA column R9.
#define MOVECELL \
	VMOVSD (R8), X4; VMOVSD X4, SOA(0, 0)(R9); \
	VMOVSD 8(R8), X4; VMOVSD X4, SOA(1, 0)(R9); \
	VMOVSD 16(R8), X4; VMOVSD X4, SOA(2, 0)(R9); \
	VMOVSD 24(R8), X4; VMOVSD X4, SOA(3, 0)(R9); \
	VMOVSD 32(R8), X4; VMOVSD X4, SOA(4, 0)(R9); \
	VMOVSD 40(R8), X4; VMOVSD X4, SOA(5, 0)(R9); \
	VMOVSD 48(R8), X4; VMOVSD X4, SOA(6, 0)(R9); \
	VMOVSD 56(R8), X4; VMOVSD X4, SOA(7, 0)(R9); \
	VMOVSD 64(R8), X4; VMOVSD X4, SOA(8, 0)(R9)

// func normRowAVX2(out, row0, row1 *float64, clip float64, groups int)
//
// L2Hys-normalizes groups groups of four adjacent 2x2-cell, 9-bin
// blocks of one block row: block i's 36 floats go to out[36*i:], its
// cells are cells i and i+1 of the cell rows at row0 and row1 (9
// floats a cell). Each block takes normalizeBlock's operations in its
// order: the first sum of squares over elements 0-35, inv =
// 1/sqrt(ss+eps), v = min(x*inv, clip) with the second sum of squares
// over the v, inv2 the same way, and v*inv2 stored.
//
// The row goes in chunks of at most normChunk blocks. A chunk's cells
// of both rows are first transposed bin-major into the frame (the
// SoA), four cells at a time and then the one cell past the last
// group, so block i's element j sits at SOA(rb, dc) past cell i. Four
// groups (16 blocks) then go per iteration, so sixteen add chains
// overlap, and the last one to three groups one at a time.
//
// The frame is the SoA: 18 rows of normCells floats (normSoABytes).
//
// Registers: R11/R12 = the chunk's first cell in row0/row1, R13 =
// groups left after the chunk, R14 = the chunk's groups, SI = SoA at
// the group's first cell, DI = out at its first block, CX = groups
// left in the chunk; Y0-Y3 sums then inv, Y8-Y11 sums then inv2, Y13 =
// clip.
TEXT ·normRowAVX2(SB), 0, $10368-40
	MOVQ         out+0(FP), DI
	MOVQ         row0+8(FP), R11
	MOVQ         row1+16(FP), R12
	VBROADCASTSD clip+24(FP), Y13
	MOVQ         groups+32(FP), R13

chunk:
	MOVQ $(const_normChunk/4), R14
	CMPQ R13, R14
	CMOVQLT R13, R14
	SUBQ R14, R13

	MOVQ R11, R8
	LEAQ 0(SP), R9
	MOVQ R14, CX
fill0:
	TRANSPOSE4(0)
	TRANSPOSE4(4)
	TRANSPOSE8
	ADDQ $288, R8
	ADDQ $32, R9
	DECQ CX
	JNZ  fill0
	MOVECELL

	MOVQ R12, R8
	LEAQ SOA(9, 0)(SP), R9
	MOVQ R14, CX
fill1:
	TRANSPOSE4(0)
	TRANSPOSE4(4)
	TRANSPOSE8
	ADDQ $288, R8
	ADDQ $32, R9
	DECQ CX
	JNZ  fill1
	MOVECELL

	LEAQ 0(SP), SI
	MOVQ R14, CX

quad:
	CMPQ CX, $4
	JLT  single
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	SQ4(SOA(0, 0))
	SQ4(SOA(1, 0))
	SQ4(SOA(2, 0))
	SQ4(SOA(3, 0))
	SQ4(SOA(4, 0))
	SQ4(SOA(5, 0))
	SQ4(SOA(6, 0))
	SQ4(SOA(7, 0))
	SQ4(SOA(8, 0))
	SQ4(SOA(0, 1))
	SQ4(SOA(1, 1))
	SQ4(SOA(2, 1))
	SQ4(SOA(3, 1))
	SQ4(SOA(4, 1))
	SQ4(SOA(5, 1))
	SQ4(SOA(6, 1))
	SQ4(SOA(7, 1))
	SQ4(SOA(8, 1))
	SQ4(SOA(9, 0))
	SQ4(SOA(10, 0))
	SQ4(SOA(11, 0))
	SQ4(SOA(12, 0))
	SQ4(SOA(13, 0))
	SQ4(SOA(14, 0))
	SQ4(SOA(15, 0))
	SQ4(SOA(16, 0))
	SQ4(SOA(17, 0))
	SQ4(SOA(9, 1))
	SQ4(SOA(10, 1))
	SQ4(SOA(11, 1))
	SQ4(SOA(12, 1))
	SQ4(SOA(13, 1))
	SQ4(SOA(14, 1))
	SQ4(SOA(15, 1))
	SQ4(SOA(16, 1))
	SQ4(SOA(17, 1))
	INVSQRT(Y0)
	INVSQRT(Y1)
	INVSQRT(Y2)
	INVSQRT(Y3)
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	CLIP4(SOA(0, 0))
	CLIP4(SOA(1, 0))
	CLIP4(SOA(2, 0))
	CLIP4(SOA(3, 0))
	CLIP4(SOA(4, 0))
	CLIP4(SOA(5, 0))
	CLIP4(SOA(6, 0))
	CLIP4(SOA(7, 0))
	CLIP4(SOA(8, 0))
	CLIP4(SOA(0, 1))
	CLIP4(SOA(1, 1))
	CLIP4(SOA(2, 1))
	CLIP4(SOA(3, 1))
	CLIP4(SOA(4, 1))
	CLIP4(SOA(5, 1))
	CLIP4(SOA(6, 1))
	CLIP4(SOA(7, 1))
	CLIP4(SOA(8, 1))
	CLIP4(SOA(9, 0))
	CLIP4(SOA(10, 0))
	CLIP4(SOA(11, 0))
	CLIP4(SOA(12, 0))
	CLIP4(SOA(13, 0))
	CLIP4(SOA(14, 0))
	CLIP4(SOA(15, 0))
	CLIP4(SOA(16, 0))
	CLIP4(SOA(17, 0))
	CLIP4(SOA(9, 1))
	CLIP4(SOA(10, 1))
	CLIP4(SOA(11, 1))
	CLIP4(SOA(12, 1))
	CLIP4(SOA(13, 1))
	CLIP4(SOA(14, 1))
	CLIP4(SOA(15, 1))
	CLIP4(SOA(16, 1))
	CLIP4(SOA(17, 1))
	INVSQRT(Y8)
	INVSQRT(Y9)
	INVSQRT(Y10)
	INVSQRT(Y11)
	OUT(SOA(0, 0), SOA(1, 0), SOA(2, 0), SOA(3, 0), 0, Y0, Y8, 0)
	OUT(SOA(4, 0), SOA(5, 0), SOA(6, 0), SOA(7, 0), 0, Y0, Y8, 32)
	OUT(SOA(8, 0), SOA(0, 1), SOA(1, 1), SOA(2, 1), 0, Y0, Y8, 64)
	OUT(SOA(3, 1), SOA(4, 1), SOA(5, 1), SOA(6, 1), 0, Y0, Y8, 96)
	OUT(SOA(7, 1), SOA(8, 1), SOA(9, 0), SOA(10, 0), 0, Y0, Y8, 128)
	OUT(SOA(11, 0), SOA(12, 0), SOA(13, 0), SOA(14, 0), 0, Y0, Y8, 160)
	OUT(SOA(15, 0), SOA(16, 0), SOA(17, 0), SOA(9, 1), 0, Y0, Y8, 192)
	OUT(SOA(10, 1), SOA(11, 1), SOA(12, 1), SOA(13, 1), 0, Y0, Y8, 224)
	OUT(SOA(14, 1), SOA(15, 1), SOA(16, 1), SOA(17, 1), 0, Y0, Y8, 256)
	OUT(SOA(0, 0), SOA(1, 0), SOA(2, 0), SOA(3, 0), 32, Y1, Y9, 1152)
	OUT(SOA(4, 0), SOA(5, 0), SOA(6, 0), SOA(7, 0), 32, Y1, Y9, 1184)
	OUT(SOA(8, 0), SOA(0, 1), SOA(1, 1), SOA(2, 1), 32, Y1, Y9, 1216)
	OUT(SOA(3, 1), SOA(4, 1), SOA(5, 1), SOA(6, 1), 32, Y1, Y9, 1248)
	OUT(SOA(7, 1), SOA(8, 1), SOA(9, 0), SOA(10, 0), 32, Y1, Y9, 1280)
	OUT(SOA(11, 0), SOA(12, 0), SOA(13, 0), SOA(14, 0), 32, Y1, Y9, 1312)
	OUT(SOA(15, 0), SOA(16, 0), SOA(17, 0), SOA(9, 1), 32, Y1, Y9, 1344)
	OUT(SOA(10, 1), SOA(11, 1), SOA(12, 1), SOA(13, 1), 32, Y1, Y9, 1376)
	OUT(SOA(14, 1), SOA(15, 1), SOA(16, 1), SOA(17, 1), 32, Y1, Y9, 1408)
	OUT(SOA(0, 0), SOA(1, 0), SOA(2, 0), SOA(3, 0), 64, Y2, Y10, 2304)
	OUT(SOA(4, 0), SOA(5, 0), SOA(6, 0), SOA(7, 0), 64, Y2, Y10, 2336)
	OUT(SOA(8, 0), SOA(0, 1), SOA(1, 1), SOA(2, 1), 64, Y2, Y10, 2368)
	OUT(SOA(3, 1), SOA(4, 1), SOA(5, 1), SOA(6, 1), 64, Y2, Y10, 2400)
	OUT(SOA(7, 1), SOA(8, 1), SOA(9, 0), SOA(10, 0), 64, Y2, Y10, 2432)
	OUT(SOA(11, 0), SOA(12, 0), SOA(13, 0), SOA(14, 0), 64, Y2, Y10, 2464)
	OUT(SOA(15, 0), SOA(16, 0), SOA(17, 0), SOA(9, 1), 64, Y2, Y10, 2496)
	OUT(SOA(10, 1), SOA(11, 1), SOA(12, 1), SOA(13, 1), 64, Y2, Y10, 2528)
	OUT(SOA(14, 1), SOA(15, 1), SOA(16, 1), SOA(17, 1), 64, Y2, Y10, 2560)
	OUT(SOA(0, 0), SOA(1, 0), SOA(2, 0), SOA(3, 0), 96, Y3, Y11, 3456)
	OUT(SOA(4, 0), SOA(5, 0), SOA(6, 0), SOA(7, 0), 96, Y3, Y11, 3488)
	OUT(SOA(8, 0), SOA(0, 1), SOA(1, 1), SOA(2, 1), 96, Y3, Y11, 3520)
	OUT(SOA(3, 1), SOA(4, 1), SOA(5, 1), SOA(6, 1), 96, Y3, Y11, 3552)
	OUT(SOA(7, 1), SOA(8, 1), SOA(9, 0), SOA(10, 0), 96, Y3, Y11, 3584)
	OUT(SOA(11, 0), SOA(12, 0), SOA(13, 0), SOA(14, 0), 96, Y3, Y11, 3616)
	OUT(SOA(15, 0), SOA(16, 0), SOA(17, 0), SOA(9, 1), 96, Y3, Y11, 3648)
	OUT(SOA(10, 1), SOA(11, 1), SOA(12, 1), SOA(13, 1), 96, Y3, Y11, 3680)
	OUT(SOA(14, 1), SOA(15, 1), SOA(16, 1), SOA(17, 1), 96, Y3, Y11, 3712)
	ADDQ $128, SI
	ADDQ $4608, DI
	SUBQ $4, CX
	JMP  quad

single:
	TESTQ CX, CX
	JZ    done
	VXORPD Y0, Y0, Y0
	SQ1(SOA(0, 0))
	SQ1(SOA(1, 0))
	SQ1(SOA(2, 0))
	SQ1(SOA(3, 0))
	SQ1(SOA(4, 0))
	SQ1(SOA(5, 0))
	SQ1(SOA(6, 0))
	SQ1(SOA(7, 0))
	SQ1(SOA(8, 0))
	SQ1(SOA(0, 1))
	SQ1(SOA(1, 1))
	SQ1(SOA(2, 1))
	SQ1(SOA(3, 1))
	SQ1(SOA(4, 1))
	SQ1(SOA(5, 1))
	SQ1(SOA(6, 1))
	SQ1(SOA(7, 1))
	SQ1(SOA(8, 1))
	SQ1(SOA(9, 0))
	SQ1(SOA(10, 0))
	SQ1(SOA(11, 0))
	SQ1(SOA(12, 0))
	SQ1(SOA(13, 0))
	SQ1(SOA(14, 0))
	SQ1(SOA(15, 0))
	SQ1(SOA(16, 0))
	SQ1(SOA(17, 0))
	SQ1(SOA(9, 1))
	SQ1(SOA(10, 1))
	SQ1(SOA(11, 1))
	SQ1(SOA(12, 1))
	SQ1(SOA(13, 1))
	SQ1(SOA(14, 1))
	SQ1(SOA(15, 1))
	SQ1(SOA(16, 1))
	SQ1(SOA(17, 1))
	INVSQRT(Y0)
	VXORPD Y8, Y8, Y8
	CLIP1(SOA(0, 0))
	CLIP1(SOA(1, 0))
	CLIP1(SOA(2, 0))
	CLIP1(SOA(3, 0))
	CLIP1(SOA(4, 0))
	CLIP1(SOA(5, 0))
	CLIP1(SOA(6, 0))
	CLIP1(SOA(7, 0))
	CLIP1(SOA(8, 0))
	CLIP1(SOA(0, 1))
	CLIP1(SOA(1, 1))
	CLIP1(SOA(2, 1))
	CLIP1(SOA(3, 1))
	CLIP1(SOA(4, 1))
	CLIP1(SOA(5, 1))
	CLIP1(SOA(6, 1))
	CLIP1(SOA(7, 1))
	CLIP1(SOA(8, 1))
	CLIP1(SOA(9, 0))
	CLIP1(SOA(10, 0))
	CLIP1(SOA(11, 0))
	CLIP1(SOA(12, 0))
	CLIP1(SOA(13, 0))
	CLIP1(SOA(14, 0))
	CLIP1(SOA(15, 0))
	CLIP1(SOA(16, 0))
	CLIP1(SOA(17, 0))
	CLIP1(SOA(9, 1))
	CLIP1(SOA(10, 1))
	CLIP1(SOA(11, 1))
	CLIP1(SOA(12, 1))
	CLIP1(SOA(13, 1))
	CLIP1(SOA(14, 1))
	CLIP1(SOA(15, 1))
	CLIP1(SOA(16, 1))
	CLIP1(SOA(17, 1))
	INVSQRT(Y8)
	OUT(SOA(0, 0), SOA(1, 0), SOA(2, 0), SOA(3, 0), 0, Y0, Y8, 0)
	OUT(SOA(4, 0), SOA(5, 0), SOA(6, 0), SOA(7, 0), 0, Y0, Y8, 32)
	OUT(SOA(8, 0), SOA(0, 1), SOA(1, 1), SOA(2, 1), 0, Y0, Y8, 64)
	OUT(SOA(3, 1), SOA(4, 1), SOA(5, 1), SOA(6, 1), 0, Y0, Y8, 96)
	OUT(SOA(7, 1), SOA(8, 1), SOA(9, 0), SOA(10, 0), 0, Y0, Y8, 128)
	OUT(SOA(11, 0), SOA(12, 0), SOA(13, 0), SOA(14, 0), 0, Y0, Y8, 160)
	OUT(SOA(15, 0), SOA(16, 0), SOA(17, 0), SOA(9, 1), 0, Y0, Y8, 192)
	OUT(SOA(10, 1), SOA(11, 1), SOA(12, 1), SOA(13, 1), 0, Y0, Y8, 224)
	OUT(SOA(14, 1), SOA(15, 1), SOA(16, 1), SOA(17, 1), 0, Y0, Y8, 256)
	ADDQ $32, SI
	ADDQ $1152, DI
	DECQ CX
	JMP  single

done:
	// Next chunk: 288 bytes (four cells) a group on.
	LEAQ  (R14)(R14*8), AX
	SHLQ  $5, AX
	ADDQ  AX, R11
	ADDQ  AX, R12
	TESTQ R13, R13
	JNZ   chunk
	VZEROUPPER
	RET

// L2Hys's eps (1e-10) and 1.0, four lanes each.
DATA normEps<>+0(SB)/8, $0x3ddb7cdfd9d7bdbb
DATA normEps<>+8(SB)/8, $0x3ddb7cdfd9d7bdbb
DATA normEps<>+16(SB)/8, $0x3ddb7cdfd9d7bdbb
DATA normEps<>+24(SB)/8, $0x3ddb7cdfd9d7bdbb
GLOBL normEps<>(SB), RODATA|NOPTR, $32

DATA normOne<>+0(SB)/8, $0x3ff0000000000000
DATA normOne<>+8(SB)/8, $0x3ff0000000000000
DATA normOne<>+16(SB)/8, $0x3ff0000000000000
DATA normOne<>+24(SB)/8, $0x3ff0000000000000
GLOBL normOne<>(SB), RODATA|NOPTR, $32
