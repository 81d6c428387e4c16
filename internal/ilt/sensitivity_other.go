//go:build !amd64

package ilt

// The kernels of W are never selected off amd64 (cpuid.PixelAVX is false).

func wBetaAVX(w, z, t []float64, c, thetaZ, dose float64) int { panic("ilt: wBetaAVX off amd64") }
func wCubeAVX(w, z, t []float64, c, thetaZ, dose float64) int { panic("ilt: wCubeAVX off amd64") }
func wEpeAVX(w, z, t, epeW []float64, thetaZ, dose float64) int {
	panic("ilt: wEpeAVX off amd64")
}
