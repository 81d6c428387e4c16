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

// The column passes of columnsAVX, in butterflies_amd64.s: the passes above
// with a block's rows in place of a line's elements, two columns to a
// register and each twiddle broadcast to both. x holds n rows of w entries,
// stride apart; w is even and at least 2, n the plan's length.

// colSize4AVX runs the first pass (sizes 2 and 4), n a multiple of 4.
//
//go:noescape
func colSize4AVX(x []complex128, n, w, stride int, inverse bool)

// colRadix4AVX runs the two-level pass of quarter length h, n a multiple of
// 4h, reading the pass's h triples from tw.
//
//go:noescape
func colRadix4AVX(x []complex128, n, w, stride, h int, tw [][3]complex128)

// colRadix2AVX runs the odd last level over 2h rows, reading the plan's
// table w[:h] from tw.
//
//go:noescape
func colRadix2AVX(x []complex128, h, w, stride int, tw []complex128)

// columnsAVX is columnsGo on the AVX passes, for n >= 4 and an even w >= 2.
func columnsAVX(x []complex128, w, stride int, p *plan, inverse bool) {
	n := p.n
	wt, tw := p.wFwd, p.twFwd
	if inverse {
		wt, tw = p.wInv, p.twInv
	}
	colSize4AVX(x, n, w, stride, inverse)
	h := 4
	for ; 4*h <= n; h *= 4 {
		colRadix4AVX(x, n, w, stride, h, tw[:h])
		tw = tw[h:]
	}
	if 2*h == n {
		colRadix2AVX(x, h, w, stride, wt[:h])
	}
}
