package fft

import (
	"fmt"

	"mosaic/internal/cpuid"
	"mosaic/internal/grid"
	"mosaic/internal/obs"
)

// Band-limited pruned transforms.
//
// The imaging system passes no energy outside the central (2k+1)^2
// frequency block, so every convolution in the hot loop transforms a
// spectrum that is zero almost everywhere (inverse direction) or whose
// output is discarded almost everywhere (forward direction). A separable
// 2-D FFT lets both directions skip most of one pass:
//
//   - Inverse: only 2k+1 spectrum rows are nonzero, so the row pass runs
//     2k+1 length-W FFTs instead of H. The column pass still needs all W
//     transforms because the spatial output is dense.
//   - Forward: the caller only consumes the central block, so after the
//     dense row pass the column pass runs 2k+1 FFTs instead of W.
//
// Every column pass runs down the rows of a row-major block (columns.go):
// each row pass writes its output row y to row rev[y] of the block, so the
// block's columns are already the bit-reversed lines of the column
// transforms, and nothing is gathered, scattered or transposed.
//
// A real field — the mask, a focus plane's intensity, a sensitivity, the
// gradient — has a Hermitian spectrum, S(-fx, -fy) = conj(S(fx, fy)), and
// the transforms in real.go run half of each pass on the strength of it:
//
//   - Half-length real rows (forward): a real row of n samples is one
//     complex FFT of n/2, untangled into the band's fx >= 0 bins only.
//   - fx >= 0 columns (forward): the column pass runs k+1 FFTs and fills
//     the fx < 0 half of the block by conjugate mirror, so the block is
//     Hermitian bit for bit.
//   - Paired real output columns (inverse): the row pass runs the fy >= 0
//     rows of the symmetrised block (k+1 FFTs), and two real output
//     columns ride one complex column FFT as its real and imaginary parts
//     (W/2 FFTs), run in the real destination itself read as complex.
//
// EmbedCenter + Inverse2D (and Forward2D + ExtractCenter) remain the
// reference implementations; the equivalence tests pin the pruned paths to
// them at 1e-12.

// Pruned-transform counters: how often the engine skipped work, and how
// many grid points the pruned transforms covered (w*h per call, both
// directions). Callers run transforms of different sizes — the per-kernel
// ones on the imaging grid, the resampling ones on the mask grid — so the
// call counts alone do not measure work; the points do.
var (
	prunedInverse = obs.NewCounter("fft_pruned_inverse_total")
	prunedForward = obs.NewCounter("fft_pruned_forward_total")
	prunedPoints  = obs.NewCounter("fft_pruned_points_total")
)

func checkBlock(blk *grid.CField, w, h int) int {
	if blk.W != blk.H || blk.W%2 != 1 {
		panic(fmt.Sprintf("fft: band block must be an odd square, got %dx%d", blk.W, blk.H))
	}
	k := blk.W / 2
	if 2*k+1 > w || 2*k+1 > h {
		panic(fmt.Sprintf("fft: band block %dx%d exceeds grid %dx%d", blk.W, blk.H, w, h))
	}
	return k
}

// checkBand is checkBlock for the forward transforms, whose caller names the
// half-width: a block of another one would be filled in part or past its end.
func checkBand(blk *grid.CField, k, w, h int) {
	if checkBlock(blk, w, h) != k {
		panic(fmt.Sprintf("fft: band block %dx%d is not of half-width %d", blk.W, blk.H, k))
	}
}

// InverseBandLimited computes the normalized inverse 2-D FFT of the w x h
// spectrum whose only nonzero entries are the central band-limited block
// blk (indexed as produced by ExtractCenter, frequencies in [-k, k]),
// writing the spatial-domain field into dst. The grid must be square
// (w == h), as every imaging and mask grid is, and dst w x h; its prior
// contents are ignored and fully overwritten. It is equivalent to
// Inverse2D(EmbedCenter(blk, w, h)) without the embedding allocation and
// with the all-zero row transforms skipped.
func InverseBandLimited(blk *grid.CField, w, h int, dst *grid.CField) {
	if w != h {
		panic(fmt.Sprintf("fft: InverseBandLimited grid %dx%d is not square", w, h))
	}
	k := checkBlock(blk, w, h)
	if dst.W != w || dst.H != h {
		panic(fmt.Sprintf("fft: InverseBandLimited dst is %dx%d, want %dx%d", dst.W, dst.H, w, h))
	}
	prunedInverse.Inc()
	prunedPoints.Add(int64(w * h))
	n := w
	p := getPlan(n)
	// Pruned row pass: the spectrum row of frequency fy is transformed in
	// row rev[fy mod n] of dst, where the column pass reads entry fy of
	// every column's bit-reversed line, and the other n-(2k+1) rows, the
	// zero frequencies, are cleared. The fill writes through p.rev, so no
	// row starts with a bit-reversal swap, and folds in the 1/(W*H)
	// normalization: a power of two, so scaling the (2k+1)^2 block gives
	// the bits that scaling the n^2 output gave.
	rev := p.rev
	inv := 1 / float64(n*n)
	rowPass := func(lo, hi int) {
		for r := lo; r < hi; r++ {
			row := dst.Row(r)
			clear(row)
			fy := rev[r]
			if fy > k && fy < n-k {
				continue
			}
			if fy > k {
				fy -= n
			}
			src := blk.Row(fy + k)
			for dx := -k; dx < 0; dx++ {
				v := src[dx+k]
				row[rev[n+dx]] = complex(real(v)*inv, imag(v)*inv)
			}
			for dx := 0; dx <= k; dx++ {
				v := src[dx+k]
				row[rev[dx]] = complex(real(v)*inv, imag(v)*inv)
			}
			butterflies(row, p, true)
		}
	}
	chunked(n*n, n, rowPass)
	columnPass(n*n, dst.Data, n, n, p, true)
}

// ForwardBandLimited computes the central band-limited block (half-width
// k) of the forward 2-D FFT of the product src .* w — a complex field
// weighted by a real one of the same size, the adjoint term of a kernel
// field — into blk, which must be (2k+1)^2. The row pass writes each
// product straight into the bit-reversed order of its row transform, so
// the product is never stored in natural order and no swap pass runs, and
// keeps only the 2k+1 band entries of each transformed row, as row rev[y]
// of a compact block; the column pass runs on that block alone, cutting
// that pass roughly in half for k << W. src and w are not modified. It is
// equivalent to ExtractCenter(Forward2D(src .* w), k) without
// materializing the product or the full spectrum.
func ForwardBandLimited(src *grid.CField, w *grid.Field, k int, blk *grid.CField) {
	checkBand(blk, k, src.W, src.H)
	if w.W != src.W || w.H != src.H {
		panic(fmt.Sprintf("fft: ForwardBandLimited weight is %dx%d, want %dx%d", w.W, w.H, src.W, src.H))
	}
	prunedForward.Inc()
	prunedPoints.Add(int64(src.W * src.H))
	pw, ph := getPlan(src.W), getPlan(src.H)
	// Band column dx+k holds frequency dx: the last k entries of a row
	// transform, then its first k+1. The width is padded to even with a
	// zero column, so the vector pass runs every column in pairs.
	band := 2*k + 1
	cols := grid.GetC(band+1, src.H)
	rowPass := func(lo, hi int) {
		line := grid.GetC(src.W, 1)
		row := line.Data
		for y := lo; y < hi; y++ {
			weightedFill(row, src.Row(y), w.Row(y), pw.rev)
			butterflies(row, pw, false)
			c := cols.Row(ph.rev[y])
			copy(c, row[src.W-k:])
			copy(c[k:], row[:k+1])
			c[band] = 0
		}
		grid.PutC(line)
	}
	chunked(src.W*src.H, src.H, rowPass)
	columnPass(src.W*src.H, cols.Data, cols.W, cols.W, ph, false)
	for dy := -k; dy <= k; dy++ {
		copy(blk.Row(dy+k), cols.Row((dy + src.H) % src.H)[:band])
	}
	grid.PutC(cols)
}

// weightedFill writes the product of a complex line and a real one, both
// in natural order, into row in bit-reversed order: row[rev[x]] =
// src[x]*w[x], each part times the weight. Where cpuid.PixelAVX holds,
// fillAVX runs it: rev[x+n/2] is rev[x]+1, so entries x and x+n/2 are
// adjacent in row and go out in one 32-byte store.
func weightedFill(row, src []complex128, w []float64, rev []int) {
	src, w = src[:len(rev)], w[:len(rev)]
	if cpuid.PixelAVX && len(row) == len(rev) && len(rev) >= 2 {
		fillAVX(row, src, w, rev)
		return
	}
	for x, r := range rev {
		v, wv := src[x], w[x]
		row[r] = complex(real(v)*wv, imag(v)*wv)
	}
}
