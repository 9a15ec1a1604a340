// Package cpu probes, once at start-up, the x86 vector features the
// assembly kernels of svm and img dispatch on, so every kernel reads
// the same flag from one copy of the CPUID code.
package cpu
