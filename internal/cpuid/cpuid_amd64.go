package cpuid

// cpuid and xgetbv are implemented in cpuid_amd64.s.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// detect follows Go's internal/cpu: a VEX instruction needs OSXSAVE and
// XCR0's SSE and AVX state bits, then the CPUID bit of each extension.
func detect() (avx, avx2fma bool) {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false, false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avxBit, fmaBit = 1 << 27, 1 << 28, 1 << 12
	if ecx1&osxsave == 0 {
		return false, false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false, false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2Bit = 1 << 5
	avx = ecx1&avxBit != 0
	return avx, avx && ecx1&fmaBit != 0 && ebx7&avx2Bit != 0
}
