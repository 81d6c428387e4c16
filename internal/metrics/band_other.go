//go:build !amd64

package metrics

// bandAVX is never selected off amd64 (cpuid.PixelAVX is false).
func bandAVX(exps []Exposure, lo, hi int, th float64) int { panic("metrics: bandAVX off amd64") }
