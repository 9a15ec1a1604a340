//go:build !purego

package svm

// useAVX2 reports whether the CPU and OS support the AVX2 plane body:
// AVX and AVX2 in CPUID, and the OS saving the YMM state (OSXSAVE set
// and XCR0 enabling the SSE and AVX state components).
var useAVX2 = hasAVX2()

func hasAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

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
	if !useAVX2 || n < 8 {
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
