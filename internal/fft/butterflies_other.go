//go:build !amd64

package fft

// The AVX passes are never selected off amd64 (cpuid.AVX is false).

func butterfliesAVX(x []complex128, p *plan, inverse bool) { butterfliesGo(x, p, inverse) }

func columnsAVX(x []complex128, w, stride int, p *plan, inverse bool) {
	columnsGo(x, w, stride, p, inverse)
}
