//go:build !amd64

package fft

// The line kernels are never selected off amd64 (cpuid.PixelAVX is false).

func fillAVX(row, src []complex128, w []float64, rev []int) { panic("fft: fillAVX off amd64") }
func storeAVX(dst []float64, lines []complex128, n int)     { panic("fft: storeAVX off amd64") }
