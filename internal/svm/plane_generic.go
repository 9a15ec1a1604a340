//go:build !amd64 || purego

package svm

// planeKernelAsm reports that no assembly body is built for this
// target (or the purego tag is set): the portable body runs.
func planeKernelAsm(dst []float64, dstStride int, blocks []float64, blkStride, n int, wt []float64, cw int) bool {
	return false
}
