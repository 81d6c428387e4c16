//go:build !amd64

package sim

// foldPairAVX is never selected off amd64 (cpuid.PixelAVX is false).
func foldPairAVX(dst []float64, f []complex128, ma, mb float64) int {
	panic("sim: foldPairAVX off amd64")
}
