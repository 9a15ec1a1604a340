//go:build !purego

package svm

import "advdet/internal/cpu"

// planeKernelAVX2 is planeKernelGo's body in AVX2 assembly for n >= 8
// blocks and cw a positive multiple of 4 (plane_amd64.s). It reads and
// writes through raw pointers: the caller checks every bound.
//
//go:noescape
func planeKernelAVX2(dst *float64, dstStride int, blocks *float64, blkStride, n int, wt *float64, cw, bl int)

// planeKernelAsm runs the assembly body when the CPU has AVX2 and the
// call has the eight blocks it works in, and reports whether it did.
//
// lint:hotpath
func planeKernelAsm(dst []float64, dstStride int, blocks []float64, blkStride, n int, wt []float64, cw int) bool {
	if !cpu.AVX2 || n < 8 {
		return false
	}
	bl := len(wt) / cw
	// Bounds the assembly relies on; a slice expression out of range
	// panics here rather than letting the kernel touch foreign memory.
	_ = dst[(n-1)*dstStride : (n-1)*dstStride+cw]
	_ = blocks[(n-1)*blkStride : (n-1)*blkStride+bl]
	if bl == 0 || cw%4 != 0 || dstStride < cw || blkStride < 0 {
		return false
	}
	planeKernelAVX2(&dst[0], dstStride, &blocks[0], blkStride, n, &wt[0], cw, bl)
	return true
}
