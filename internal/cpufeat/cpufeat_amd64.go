//go:build amd64 && !noasm

package cpufeat

// cpuid executes CPUID with the given leaf/subleaf. Implemented in
// cpuid_amd64.s.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0 (requires OSXSAVE, which init checks first).
func xgetbv() (eax, edx uint32)

func init() {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 1 {
		return
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		cpuidFMA     = 1 << 12
		cpuidOSXSAVE = 1 << 27
		cpuidAVX     = 1 << 28
	)
	hasFMA := ecx1&cpuidFMA != 0
	// AVX2 needs the OS to save YMM state: OSXSAVE set and XCR0 bits 1-2
	// (SSE+AVX state) enabled — CPUID alone only says the silicon could.
	osYMM := false
	if ecx1&cpuidOSXSAVE != 0 && ecx1&cpuidAVX != 0 {
		xlo, _ := xgetbv()
		osYMM = xlo&0x6 == 0x6
	}
	if !osYMM {
		return
	}
	X86.HasFMA = hasFMA
	if maxLeaf < 7 {
		return
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const cpuidAVX2 = 1 << 5
	X86.HasAVX2 = ebx7&cpuidAVX2 != 0
}
