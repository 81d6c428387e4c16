package fft

import "mosaic/internal/grid"

// The 2-D transforms as they were before the column pass: every column
// gathered into a line, transformed by butterflies, and stored back, by a
// scatter into transposed layout, a strided gather or a paired store, with
// transposeSquare between the passes of the dense transforms. They are the
// bit oracle of the transforms that replaced them (TestTransformsMatchLines)
// and are kept here, not run in production, the way optics keeps BuildTCC.

func transform2DLines(c *grid.CField, inverse bool) {
	p := getPlan(c.W)
	rows := func() {
		for y := 0; y < c.H; y++ {
			transform(c.Row(y), p, inverse)
		}
	}
	rows()
	transposeSquareLines(c)
	rows()
	transposeSquareLines(c)
}

func transposeSquareLines(c *grid.CField) {
	n := c.W
	d := c.Data
	for y := 0; y < n; y++ {
		for x := y + 1; x < n; x++ {
			i, j := y*n+x, x*n+y
			d[i], d[j] = d[j], d[i]
		}
	}
}

func inverseBandLimitedLines(blk *grid.CField, n int, dst *grid.CField) {
	k := blk.W / 2
	p := getPlan(n)
	dst.Zero()
	rev := p.rev
	rows := 2*k + 1
	inv := 1 / float64(n*n)
	ws := grid.NewC(n, rows)
	for bi := 0; bi < rows; bi++ {
		row := ws.Row(bi)
		for dx := -k; dx <= k; dx++ {
			v := blk.At(dx+k, bi)
			row[rev[(dx+n)%n]] = complex(real(v)*inv, imag(v)*inv)
		}
		butterflies(row, p, true)
	}
	for x := 0; x < n; x++ {
		d := dst.Data[x*n : x*n+n]
		for bi := 0; bi < k; bi++ {
			d[rev[n-k+bi]] = ws.Data[bi*n+x]
		}
		for bi := k; bi < rows; bi++ {
			d[rev[bi-k]] = ws.Data[bi*n+x]
		}
	}
	for y := 0; y < n; y++ {
		butterflies(dst.Row(y), p, true)
	}
	transposeSquareLines(dst)
}

func forwardBandLimitedLines(src *grid.CField, w *grid.Field, k int, blk *grid.CField) {
	pw := getPlan(src.W)
	ws := grid.NewC(src.W, src.H)
	for y := 0; y < src.H; y++ {
		row := ws.Row(y)
		weightedFill(row, src.Row(y), w.Row(y), pw.rev)
		butterflies(row, pw, false)
	}
	ph := getPlan(ws.H)
	col := make([]complex128, ws.H)
	for dx := -k; dx <= k; dx++ {
		sx := (dx + ws.W) % ws.W
		for y := 0; y < ws.H; y++ {
			col[ph.rev[y]] = ws.Data[y*ws.W+sx]
		}
		butterflies(col, ph, false)
		for dy := -k; dy <= k; dy++ {
			blk.Set(dx+k, dy+k, col[(dy+ws.H)%ws.H])
		}
	}
}

func forwardBandLimitedRealLines(f *grid.Field, k int, blk *grid.CField) {
	w, h := f.W, f.H
	m := w / 2
	pcol := getPlan(h)
	ws := grid.NewC(h, k+1)
	if m == 0 {
		for y := 0; y < h; y++ {
			ws.Data[pcol.rev[y]] = complex(f.Data[y], 0)
		}
	} else {
		tw := getPlan(w).wFwd
		ph := getPlan(m)
		z := make([]complex128, m)
		for y := 0; y < h; y++ {
			src := f.Row(y)
			for j, r := range ph.rev {
				z[r] = complex(src[2*j], src[2*j+1])
			}
			butterflies(z, ph, false)
			out := ws.Data[pcol.rev[y]:]
			out[0] = complex(real(z[0])+imag(z[0]), 0)
			for fx := 1; fx <= k; fx++ {
				zk, zr := z[fx], z[m-fx]
				e := complex(0.5*(real(zk)+real(zr)), 0.5*(imag(zk)-imag(zr)))
				o := complex(0.5*(imag(zk)+imag(zr)), -0.5*(real(zk)-real(zr)))
				out[fx*h] = e + tw[fx]*o
			}
		}
	}
	for fx := 0; fx <= k; fx++ {
		col := ws.Row(fx)
		butterflies(col, pcol, false)
		fy := -k
		if fx == 0 {
			fy = 0
		}
		for ; fy <= k; fy++ {
			v := col[(fy+h)%h]
			blk.Set(k+fx, k+fy, v)
			blk.Set(k-fx, k-fy, complex(real(v), -imag(v)))
		}
	}
}

func inverseBandLimitedRealLines(blk *grid.CField, n int, dst *grid.Field) {
	k := blk.W / 2
	if n == 1 {
		dst.Data[0] = real(blk.Data[0])
		return
	}
	p := getPlan(n)
	rev := p.rev
	scale := 1 / float64(2*n*n)
	ws := grid.NewC(n, k+1)
	for fy := 0; fy <= k; fy++ {
		row := ws.Row(fy)
		up, down := blk.Row(k+fy), blk.Row(k-fy)
		for fx := -k; fx <= k; fx++ {
			v, c := up[k+fx], down[k-fx]
			row[rev[(fx+n)%n]] = complex((real(v)+real(c))*scale, (imag(v)-imag(c))*scale)
		}
		butterflies(row, p, true)
	}
	z := make([]complex128, n)
	for j := 0; j < n/2; j++ {
		clear(z)
		g := ws.Data[2*j:]
		z[0] = complex(real(g[0]), real(g[1]))
		for fy := 1; fy <= k; fy++ {
			a, b := g[fy*n], g[fy*n+1]
			z[rev[fy]] = complex(real(a)-imag(b), imag(a)+real(b))
			z[rev[n-fy]] = complex(real(a)+imag(b), real(b)-imag(a))
		}
		butterflies(z, p, true)
		for y, v := range z {
			dst.Data[y*n+2*j], dst.Data[y*n+2*j+1] = real(v), imag(v)
		}
	}
}
