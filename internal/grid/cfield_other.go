//go:build !amd64

package grid

// accumAbs2AVX is never selected off amd64 (cpuid.PixelAVX is false).
func accumAbs2AVX(dst []float64, src []complex128, w float64) int {
	panic("grid: accumAbs2AVX off amd64")
}
