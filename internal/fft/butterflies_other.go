//go:build !amd64

package fft

// butterfliesAVX is never selected off amd64 (cpuid.AVX is false).
func butterfliesAVX(x []complex128, p *plan, inverse bool) { butterfliesGo(x, p, inverse) }
