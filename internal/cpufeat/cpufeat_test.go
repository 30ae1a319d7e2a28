package cpufeat

import "testing"

func TestFeaturesConsistent(t *testing.T) {
	if VectorKernels() != (X86.HasAVX2 && X86.HasFMA) {
		t.Fatal("VectorKernels disagrees with X86 flags")
	}
}
