package fft

import "fmt"

// The column pass. A 2-D transform's second pass runs one line FFT down
// every column of a row-major block. Instead of gathering a column into a
// line (a strided read) or transposing the block (a pass over all of it),
// the block itself is laid out as the lines' bit-reversed order: row r holds
// entry r of every column's bit-reversed line, a caller's row pass writing
// each of its outputs to row rev[y]. The passes of butterflies then run down
// the rows, each butterfly elementwise across a row with its one twiddle,
// and afterwards row y holds entry y of every column's transform. Every
// column sees the floating-point operations butterflies performs on its
// line, in the same order, so the bits are the line kernel's
// (TestColumnsMatchLines) and no entry moves between passes.

// columnPass runs columns over the w columns of the block x (row stride
// stride), and from elems >= parallelElems on (elems is the size of the
// transform the pass belongs to) splits them into strips across cores
// through chunked. The strips are cut at even columns, so a vector pass's
// pairs are never split, and each column is its own output: the bits do
// not depend on the core count. Each pass streams whole rows: strips of a
// few cache lines run every level in cache but read slower, power-of-two
// row strides mapping their rows onto a few cache sets.
func columnPass(elems int, x []complex128, w, stride int, p *plan, inverse bool) {
	chunked(elems, (w+1)/2, func(lo, hi int) {
		columns(x[2*lo:], min(2*hi, w)-2*lo, stride, p, inverse)
	})
}

// columns transforms, in place, the w columns of the block x: p.n rows of w
// entries, row r at x[r*stride:], each column a line in bit-reversed order
// down the rows. Where the CPU has AVX (vector), columnsAVX runs the even
// columns two to a register and an odd last column runs on the Go loops.
func columns(x []complex128, w, stride int, p *plan, inverse bool) {
	if w == 0 {
		return
	}
	if stride < w || len(x) < (p.n-1)*stride+w {
		panic(fmt.Sprintf("fft: block of %d for %d rows of %d, stride %d", len(x), p.n, w, stride))
	}
	if vector && p.n >= 4 && w >= 2 {
		even := w &^ 1
		columnsAVX(x, even, stride, p, inverse)
		if even == w {
			return
		}
		x, w = x[even:], 1
	}
	columnsGo(x, w, stride, p, inverse)
}

// columnsGo is columns in Go: butterfliesGo with row r of the block in
// place of element r of the line.
func columnsGo(x []complex128, w, stride int, p *plan, inverse bool) {
	n := p.n
	row := func(r int) []complex128 { return x[r*stride:][:w] }
	if n < 4 {
		if n == 2 {
			r0, r1 := row(0), row(1)
			for i := range r0 {
				r0[i], r1[i] = r0[i]+r1[i], r0[i]-r1[i]
			}
		}
		return
	}
	// Sizes 2 and 4.
	wt, tw := p.wFwd, p.twFwd
	if inverse {
		wt, tw = p.wInv, p.twInv
	}
	for g := 0; g < n; g += 4 {
		q0, q1, q2, q3 := row(g), row(g+1), row(g+2), row(g+3)
		for i := range q0 {
			a, b, c, d := q0[i], q1[i], q2[i], q3[i]
			a, b = a+b, a-b
			c, d = c+d, c-d
			if inverse {
				d = complex(-imag(d), real(d)) // i * d
			} else {
				d = complex(imag(d), -real(d)) // -i * d
			}
			q0[i], q2[i] = a+c, a-c
			q1[i], q3[i] = b+d, b-d
		}
	}
	// Sizes 2h and 4h, h = 4, 16, 64, ...
	h := 4
	for ; 4*h <= n; h *= 4 {
		t := tw[:h]
		tw = tw[h:]
		for blk := 0; blk < n; blk += 4 * h {
			for j := range t {
				tj := &t[j]
				q0, q1, q2, q3 := row(blk+j), row(blk+h+j), row(blk+2*h+j), row(blk+3*h+j)
				if j == 0 {
					// Offset 0: only d is multiplied, by w[n/4].
					for i := range q0 {
						a, b, c, d := q0[i], q1[i], q2[i], q3[i]
						a, b = a+b, a-b
						c, d = c+d, c-d
						d *= tj[2]
						q0[i], q2[i] = a+c, a-c
						q1[i], q3[i] = b+d, b-d
					}
					continue
				}
				for i := range q0 {
					a, b, c, d := q0[i], q1[i]*tj[0], q2[i], q3[i]*tj[0]
					a, b = a+b, a-b
					c, d = c+d, c-d
					c *= tj[1]
					d *= tj[2]
					q0[i], q2[i] = a+c, a-c
					q1[i], q3[i] = b+d, b-d
				}
			}
		}
	}
	// An odd level count leaves the level of size n = 2h.
	if 2*h == n {
		for j, wj := range wt[:h] {
			lo, hi := row(j), row(j+h)
			if j == 0 {
				for i := range lo {
					u, v := lo[i], hi[i]
					lo[i], hi[i] = u+v, u-v
				}
				continue
			}
			for i := range lo {
				u, v := lo[i], hi[i]*wj
				lo[i], hi[i] = u+v, u-v
			}
		}
	}
}
