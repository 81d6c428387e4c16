package fft

import (
	"fmt"

	"mosaic/internal/cpuid"
	"mosaic/internal/grid"
)

// Band-limited transforms of real fields. A real field has a Hermitian
// spectrum, S(-fx, -fy) = conj(S(fx, fy)), so half of it determines the
// rest: the forward transform computes the fx >= 0 half of the band and
// mirrors it, the inverse reads the fy >= 0 half and writes two real
// columns per complex line. Neither forms a complex field of the grid's
// size.

// ForwardBandLimitedReal computes the central band-limited block of the
// forward 2-D FFT of the real field f into blk ((2k+1)^2). f is not
// modified, and blk is Hermitian bit for bit: blk(-fx, -fy) is the
// conjugate of blk(fx, fy), not a second computation of it.
//
// Row pass: a length-n real row needs only a length-n/2 complex FFT. The
// even and odd samples pack into z[j] = x[2j] + i*x[2j+1] (a
// decimation-in-time split), the half-length spectrum untangles into the
// even/odd-sample subspectra through conjugate symmetry, and one twiddled
// butterfly per bin recombines them — for the bins fx in [0, k] only, since
// the mirror supplies fx < 0. Each row's k+1 bins go to a (k+1) x H
// workspace, one line per fx, in the column transform's bit-reversed order.
// Column pass: k+1 FFTs in place on those lines, of which the band rows and
// their mirror images are kept.
func ForwardBandLimitedReal(f *grid.Field, k int, blk *grid.CField) {
	checkBand(blk, k, f.W, f.H)
	prunedForward.Inc()
	prunedPoints.Add(int64(f.W * f.H))
	w, h := f.W, f.H
	m := w / 2
	pcol := getPlan(h)
	ws := grid.GetC(h, k+1)
	rowPass := func(lo, hi int) {
		if m == 0 {
			// Degenerate 1-wide grid: a row is its own spectrum.
			for y := lo; y < hi; y++ {
				ws.Data[pcol.rev[y]] = complex(f.Data[y], 0)
			}
			return
		}
		tw := getPlan(w).wFwd
		ph := getPlan(m)
		scratch := grid.GetC(m, 1)
		z := scratch.Data
		for y := lo; y < hi; y++ {
			src := f.Row(y)
			for j, r := range ph.rev {
				z[r] = complex(src[2*j], src[2*j+1])
			}
			butterflies(z, ph, false)
			// Untangle: with E/O the spectra of the even/odd samples and
			// tw[fx] = exp(-2*pi*i*fx/n),
			//   E[fx] = (Z[fx] + conj(Z[m-fx])) / 2
			//   O[fx] = (Z[fx] - conj(Z[m-fx])) * -i/2
			//   X[fx] = E[fx] + tw[fx] * O[fx]
			// and X[0] = Re Z[0] + Im Z[0], exactly real. 2k+1 <= n keeps
			// fx < m.
			out := ws.Data[pcol.rev[y]:]
			out[0] = complex(real(z[0])+imag(z[0]), 0)
			for fx := 1; fx <= k; fx++ {
				zk, zr := z[fx], z[m-fx]
				e := complex(0.5*(real(zk)+real(zr)), 0.5*(imag(zk)-imag(zr)))
				o := complex(0.5*(imag(zk)+imag(zr)), -0.5*(real(zk)-real(zr)))
				out[fx*h] = e + tw[fx]*o
			}
		}
		grid.PutC(scratch)
	}
	chunked(w*h, h, rowPass)
	colPass := func(lo, hi int) {
		for fx := lo; fx < hi; fx++ {
			col := ws.Row(fx)
			butterflies(col, pcol, false)
			// Column 0 mirrors onto itself: its fy >= 0 half is kept and
			// written over the other, and its DC bin, a sum of reals, is
			// its own conjugate.
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
	chunked(w*h, k+1, colPass)
	grid.PutC(ws)
}

// pairBlock is how many pairs of output columns InverseBandLimitedReal
// transforms before it stores them: four pairs are eight float64, one cache
// line of every destination row.
const pairBlock = 4

// InverseBandLimitedReal computes the real part of the normalized inverse
// 2-D FFT of the n x n spectrum whose only nonzero entries are the central
// band-limited block blk, writing it into dst, which must be n x n; its
// prior contents are ignored and fully overwritten. It is equivalent to
// the real part of Inverse2D(EmbedCenter(blk, n, n)) for any block: the
// real part of a field is the transform of the Hermitian part of its
// spectrum, S(fx, fy) = (B(fx, fy) + conj(B(-fx, -fy))) / 2, and S is what
// is transformed. A block that is Hermitian already (ForwardBandLimitedReal
// makes one) is its own Hermitian part, exactly.
//
// Row pass: the rows fy in [0, k] of S, with the 1/n^2 of the inverse
// folded into the fill (S costs one addition per entry and 1/(2n^2) is a
// power of two), are transformed into G[fy][x]; the rows fy < 0 would give
// conj(G[-fy][x]) and are not run. Column pass: output column x is the
// inverse transform of the Hermitian line G[.][x], hence real, so two
// columns share one complex FFT: Z[fy] = G[fy][x0] + i*G[fy][x1] and
// Z[-fy] = conj(G[fy][x0]) + i*conj(G[fy][x1]) transform to
// out[.][x0] + i*out[.][x1]. The pairs are always (2j, 2j+1), so the bits
// do not depend on how the passes were chunked across cores.
func InverseBandLimitedReal(blk *grid.CField, n int, dst *grid.Field) {
	k := checkBlock(blk, n, n)
	if dst.W != n || dst.H != n {
		panic(fmt.Sprintf("fft: InverseBandLimitedReal dst is %dx%d, want %dx%d", dst.W, dst.H, n, n))
	}
	prunedInverse.Inc()
	prunedPoints.Add(int64(n * n))
	if n == 1 {
		dst.Data[0] = real(blk.Data[0])
		return
	}
	p := getPlan(n)
	rev := p.rev
	scale := 1 / float64(2*n*n)
	ws := grid.GetC(n, k+1)
	rowPass := func(lo, hi int) {
		for fy := lo; fy < hi; fy++ {
			row := ws.Row(fy)
			clear(row)
			up, down := blk.Row(k+fy), blk.Row(k-fy)
			for fx := -k; fx <= k; fx++ {
				v, c := up[k+fx], down[k-fx]
				row[rev[(fx+n)%n]] = complex((real(v)+real(c))*scale, (imag(v)-imag(c))*scale)
			}
			butterflies(row, p, true)
		}
	}
	chunked(n*n, k+1, rowPass)
	half := n / 2
	colPass := func(lo, hi int) {
		lines := grid.GetC(n, pairBlock)
		for j0 := lo * pairBlock; j0 < min(hi*pairBlock, half); j0 += pairBlock {
			np := min(pairBlock, half-j0)
			for q := 0; q < np; q++ {
				z := lines.Row(q)
				clear(z)
				g := ws.Data[2*(j0+q):]
				// G[0] is real up to roundoff; its real part is used.
				z[0] = complex(real(g[0]), real(g[1]))
				for fy := 1; fy <= k; fy++ {
					a, b := g[fy*n], g[fy*n+1]
					z[rev[fy]] = complex(real(a)-imag(b), imag(a)+real(b))
					z[rev[n-fy]] = complex(real(a)+imag(b), real(b)-imag(a))
				}
				butterflies(z, p, true)
			}
			storePairs(dst.Data[2*j0:], lines.Data, n, np)
		}
		grid.PutC(lines)
	}
	chunked(n*n, (half+pairBlock-1)/pairBlock, colPass)
	grid.PutC(ws)
}

// storePairs moves entry y of each of the np lines of n, laid end to end in
// lines, into row y of dst (row stride n): line q's real and imaginary
// parts to columns 2q and 2q+1. Where cpuid.PixelAVX holds and the block
// is full, storeAVX moves two rows a step, a 2x2 transpose of complex128
// pairs per two lines: pure moves, so every bit is kept.
func storePairs(dst []float64, lines []complex128, n, np int) {
	_, _ = dst[(n-1)*n+2*np-1], lines[np*n-1]
	if cpuid.PixelAVX && np == pairBlock && n%2 == 0 {
		storeAVX(dst, lines, n)
		return
	}
	for y := 0; y < n; y++ {
		d := dst[y*n:]
		for q := 0; q < np; q++ {
			v := lines[q*n+y]
			d[2*q], d[2*q+1] = real(v), imag(v)
		}
	}
}
