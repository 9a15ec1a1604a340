// Package cpu probes, once at start-up, the x86 vector features the
// assembly kernels dispatch on (the svm window scorer, the img resize
// and gray conversion, the hog cell histograms), so every kernel reads
// the same flag from one copy of the CPUID code.
package cpu
