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
//     dense row pass the column pass runs 2k+1 FFTs instead of W, and no
//     transposes are needed at all.
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
//     (W/2 FFTs), stored straight into the real destination.
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
	dst.Zero()
	// Pruned row pass: inverse-transform the 2k+1 nonzero spectrum rows
	// into a small resident workspace, then scatter the workspace into the
	// band columns of dst so that dst holds the intermediate in transposed
	// layout and the second pass streams rows. Both fills write through
	// p.rev, so neither pass starts with a bit-reversal swap, and the first
	// folds in the 1/(W*H) normalization: a power of two, so scaling the
	// (2k+1)^2 block gives the bits that scaling the n^2 output gave.
	rev := p.rev
	rows := 2*k + 1
	inv := 1 / float64(n*n)
	ws := grid.GetC(n, rows)
	rowPass := func(lo, hi int) {
		for bi := lo; bi < hi; bi++ {
			row := ws.Row(bi)
			clear(row)
			for dx := -k; dx <= k; dx++ {
				v := blk.At(dx+k, bi)
				row[rev[(dx+n)%n]] = complex(real(v)*inv, imag(v)*inv)
			}
			butterflies(row, p, true)
		}
	}
	chunked(n*n, rows, rowPass)
	// Scatter, walking dst row-major (x outer): the workspace columns it
	// reads span only 2k+1 cache lines that are reused across consecutive
	// x, where a per-band-row scatter made 2k+1 full stride-n passes over
	// dst. Band row bi holds frequency bi-k: the negative ones belong in
	// the last k entries of the destination row, the rest in the first
	// k+1.
	for x := 0; x < n; x++ {
		d := dst.Data[x*n : x*n+n]
		for bi := 0; bi < k; bi++ {
			d[rev[n-k+bi]] = ws.Data[bi*n+x]
		}
		for bi := k; bi < rows; bi++ {
			d[rev[bi-k]] = ws.Data[bi*n+x]
		}
	}
	grid.PutC(ws)
	// Dense column pass (as rows of the transposed intermediate).
	pass := func(lo, hi int) {
		for y := lo; y < hi; y++ {
			butterflies(dst.Row(y), p, true)
		}
	}
	chunked(n*n, n, pass)
	transposeSquare(dst)
}

// ForwardBandLimited computes the central band-limited block (half-width
// k) of the forward 2-D FFT of the product src .* w — a complex field
// weighted by a real one of the same size, the adjoint term of a kernel
// field — into blk, which must be (2k+1)^2. The row pass writes each
// product straight into the bit-reversed order of its row transform, so
// the product is never stored in natural order and no swap pass runs; only
// the band columns are transformed in the second pass, cutting that pass
// roughly in half for k << W. src and w are not modified. It is equivalent
// to ExtractCenter(Forward2D(src .* w), k) without materializing the
// product or the full spectrum.
func ForwardBandLimited(src *grid.CField, w *grid.Field, k int, blk *grid.CField) {
	checkBand(blk, k, src.W, src.H)
	if w.W != src.W || w.H != src.H {
		panic(fmt.Sprintf("fft: ForwardBandLimited weight is %dx%d, want %dx%d", w.W, w.H, src.W, src.H))
	}
	prunedForward.Inc()
	prunedPoints.Add(int64(src.W * src.H))
	pw := getPlan(src.W)
	ws := grid.GetC(src.W, src.H)
	rowPass := func(lo, hi int) {
		for y := lo; y < hi; y++ {
			row := ws.Row(y)
			weightedFill(row, src.Row(y), w.Row(y), pw.rev)
			butterflies(row, pw, false)
		}
	}
	chunked(src.W*src.H, src.H, rowPass)
	bandColumns(ws, k, blk)
	grid.PutC(ws)
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

// bandColumns runs the forward column transforms for the 2k+1 band columns
// of the row-transformed field ws, extracting the band rows into blk.
func bandColumns(ws *grid.CField, k int, blk *grid.CField) {
	ph := getPlan(ws.H)
	rev := ph.rev
	w, h := ws.W, ws.H
	pass := func(lo, hi int) {
		scratch := grid.GetC(h, 1)
		col := scratch.Data
		for bi := lo; bi < hi; bi++ {
			dx := bi - k
			sx := (dx + w) % w
			for y := 0; y < h; y++ {
				col[rev[y]] = ws.Data[y*w+sx]
			}
			butterflies(col, ph, false)
			for dy := -k; dy <= k; dy++ {
				blk.Set(dx+k, dy+k, col[(dy+h)%h])
			}
		}
		grid.PutC(scratch)
	}
	chunked(w*h, 2*k+1, pass)
}
