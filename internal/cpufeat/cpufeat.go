// Package cpufeat detects the x86 SIMD capabilities the vectorized SpMV
// kernels dispatch on. Detection runs once at package init via CPUID (and
// XGETBV, to confirm the OS actually saves the YMM register state); every
// other platform — and any build with the noasm tag — reports no features,
// which routes all kernels to their pure-Go fallbacks.
package cpufeat

// X86 reports the features the kernel layer cares about. Populated at init
// on amd64 builds without the noasm tag; zero value everywhere else.
var X86 struct {
	// HasAVX2 is true when the CPU supports AVX2 and the OS has enabled
	// YMM state saving (OSXSAVE + XCR0 bits 1-2).
	HasAVX2 bool
	// HasFMA is true when FMA3 is available (always checked together with
	// AVX2 by the dispatcher: the kernels use VFMADD).
	HasFMA bool
}

// VectorKernels reports whether the AVX2+FMA kernel set is usable on this
// host (the single condition the sparse package's dispatcher tests).
func VectorKernels() bool { return X86.HasAVX2 && X86.HasFMA }
