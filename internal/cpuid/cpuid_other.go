//go:build !amd64

package cpuid

func detect() (avx, avx2fma bool) { return false, false }
