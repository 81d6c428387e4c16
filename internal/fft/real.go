package fft

import (
	"fmt"
	"unsafe"

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
// the mirror supplies fx < 0. Row y's k+1 bins go to row rev[y] of a block
// of H rows, one column per fx, padded to an even width. Column pass: the
// block's columns in place, of which the band rows and their mirror images
// are kept.
func ForwardBandLimitedReal(f *grid.Field, k int, blk *grid.CField) {
	checkBand(blk, k, f.W, f.H)
	prunedForward.Inc()
	prunedPoints.Add(int64(f.W * f.H))
	w, h := f.W, f.H
	m := w / 2
	pcol := getPlan(h)
	cols := grid.GetC((k+2)&^1, h)
	rowPass := func(lo, hi int) {
		if m == 0 {
			// Degenerate 1-wide grid: a row is its own spectrum.
			for y := lo; y < hi; y++ {
				out := cols.Row(pcol.rev[y])
				out[0], out[1] = complex(f.Data[y], 0), 0
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
			out := cols.Row(pcol.rev[y])
			out[0] = complex(real(z[0])+imag(z[0]), 0)
			for fx := 1; fx <= k; fx++ {
				zk, zr := z[fx], z[m-fx]
				e := complex(0.5*(real(zk)+real(zr)), 0.5*(imag(zk)-imag(zr)))
				o := complex(0.5*(imag(zk)+imag(zr)), -0.5*(real(zk)-real(zr)))
				out[fx] = e + tw[fx]*o
			}
			clear(out[k+1:])
		}
		grid.PutC(scratch)
	}
	chunked(w*h, h, rowPass)
	columnPass(w*h, cols.Data, cols.W, cols.W, pcol, false)
	// Band row fy goes to blk row k+fy from column k on and, conjugated,
	// to row k-fy from column k back. Column 0 mirrors onto itself: its
	// fy >= 0 half is kept and written over the other, and its DC bin, a
	// sum of reals, is its own conjugate.
	for fy := -k; fy <= k; fy++ {
		src := cols.Row((fy + h) % h)[:k+1]
		pos, neg := blk.Row(k + fy)[k:], blk.Row(k - fy)[:k+1]
		for fx, v := range src {
			if fx == 0 && fy < 0 {
				continue
			}
			pos[fx] = v
			neg[k-fx] = complex(real(v), -imag(v))
		}
	}
	grid.PutC(cols)
}

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
// out[.][x0] + i*out[.][x1]. The pairs are (2j, 2j+1), which is dst's
// own layout read as n x n/2 complex128: Z[fy] and Z[-fy] are written as
// rows rev[fy] and rev[n-fy] of that view, the other rows cleared, and the
// column pass leaves row y holding out[y][2j] + i*out[y][2j+1] in place.
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
	half := n / 2
	// A complex128 is two float64 with float64's alignment, so the n*n
	// float64 of dst are n*n/2 complex128, entry (y, j) the pair of
	// columns 2j and 2j+1 of row y.
	z := unsafe.Slice((*complex128)(unsafe.Pointer(unsafe.SliceData(dst.Data))), n*half)
	zrow := func(r int) []complex128 { return z[r*half:][:half] }
	rowPass := func(lo, hi int) {
		line := grid.GetC(n, 1)
		g := line.Data
		for r := lo; r < hi; r++ {
			fy := rev[r]
			if fy > k {
				// Rows of fy < 0 are written with their partner fy > 0.
				if fy < n-k {
					clear(zrow(r))
				}
				continue
			}
			clear(g)
			up, down := blk.Row(k+fy), blk.Row(k-fy)
			for fx := -k; fx < 0; fx++ {
				v, c := up[k+fx], down[k-fx]
				g[rev[n+fx]] = complex((real(v)+real(c))*scale, (imag(v)-imag(c))*scale)
			}
			for fx := 0; fx <= k; fx++ {
				v, c := up[k+fx], down[k-fx]
				g[rev[fx]] = complex((real(v)+real(c))*scale, (imag(v)-imag(c))*scale)
			}
			butterflies(g, p, true)
			if fy == 0 {
				// G[0] is real up to roundoff; its real part is used.
				dc := zrow(r)
				for j := range dc {
					dc[j] = complex(real(g[2*j]), real(g[2*j+1]))
				}
				continue
			}
			pos, neg := zrow(r), zrow(rev[n-fy])
			for j := range pos {
				a, b := g[2*j], g[2*j+1]
				pos[j] = complex(real(a)-imag(b), imag(a)+real(b))
				neg[j] = complex(real(a)+imag(b), real(b)-imag(a))
			}
		}
		grid.PutC(line)
	}
	chunked(n*n, n, rowPass)
	columnPass(n*n, z, half, half, p, true)
}
