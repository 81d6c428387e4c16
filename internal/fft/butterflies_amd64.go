package fft

// The passes of butterfliesAVX, in butterflies_amd64.s. Each runs the
// floating-point operations of its butterfliesGo loop on the same operands
// in the same order, two complex128 to a 256-bit register: a product
// x*w is x*re(w) and swap(x)*im(w) joined by VADDSUBPD, both products
// rounded (no FMA, as Go's amd64 complex arithmetic), and an offset-0
// butterfly keeps its operand unmultiplied by a blend.

// size4AVX runs the first pass (sizes 2 and 4) over x, len(x) a multiple
// of 4.
//
//go:noescape
func size4AVX(x []complex128, inverse bool)

// radix4AVX runs the two-level pass of quarter length h over x, len(x) a
// multiple of 4h, reading the pass's 12h entries of vecTwiddles from tw.
//
//go:noescape
func radix4AVX(x []complex128, h int, tw []float64)

// radix2AVX runs the odd last level over x, reading 2*len(x) entries of
// vecTwiddles from tw.
//
//go:noescape
func radix2AVX(x []complex128, tw []float64)

// butterfliesAVX is butterfliesGo on the AVX passes, for n >= 4.
func butterfliesAVX(x []complex128, p *plan, inverse bool) {
	n := p.n
	tw := p.vecFwd
	if inverse {
		tw = p.vecInv
	}
	size4AVX(x, inverse)
	h := 4
	for ; 4*h <= n; h *= 4 {
		radix4AVX(x, h, tw[:12*h])
		tw = tw[12*h:]
	}
	if 2*h == n {
		radix2AVX(x, tw[:2*n])
	}
}
