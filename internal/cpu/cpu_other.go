//go:build !amd64 || purego

package cpu

// AVX2 is false where no assembly kernel is built (other targets, or
// the purego tag): the portable bodies run.
const AVX2 = false
