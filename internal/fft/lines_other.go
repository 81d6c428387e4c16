//go:build !amd64

package fft

// The line kernel is never selected off amd64 (cpuid.PixelAVX is false).

func fillAVX(row, src []complex128, w []float64, rev []int) { panic("fft: fillAVX off amd64") }
