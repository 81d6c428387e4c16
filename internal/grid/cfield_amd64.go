package grid

// accumAbs2AVX is AccumAbs2's kernel, in cfield_amd64.s: dst[i] +=
// w*(re*re + im*im) over src[:len(src)&^3], four elements a step with the
// Go loop's products and sums unfused and in its order (VHADDPD adds re²
// and im² as re*re + im*im does), and returns that count. dst is as long
// as src.
//
//go:noescape
func accumAbs2AVX(dst []float64, src []complex128, w float64) int
