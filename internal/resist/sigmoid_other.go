//go:build !amd64

package resist

// sigmoidAVX2 is never selected off amd64 (cpuid.AVX2FMA is false).
func sigmoidAVX2(dst, x []float64, s, t, nt float64) int { return 0 }
