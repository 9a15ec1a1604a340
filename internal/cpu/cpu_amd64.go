//go:build !purego

package cpu

// AVX2 reports whether the CPU and OS support the AVX2 kernels: AVX
// and AVX2 in CPUID, and the OS saving the YMM state (OSXSAVE set and
// XCR0 enabling the SSE and AVX state components). Read-only.
var AVX2 = hasAVX2()

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
