package sim

import (
	"fmt"

	"mosaic/internal/fft"
	"mosaic/internal/grid"
	"mosaic/internal/par"
)

// ImagingGrid is the grid the per-kernel SOCS work runs on. Every kernel
// lives on the central (2K+1)^2 frequency block, so a field A_k = M conv h_k
// is fully determined by 2K+1 samples per axis and the products the model
// forms from it — |A_k|^2 (bandwidth 2K) in the forward pass, and the +/-K
// band of W.A_k (bandwidth 3K) in the adjoint — are alias-free on any grid
// of at least 4K+1 samples. The imaging grid is the smallest power-of-two
// grid of that size, capped at the mask grid: the per-kernel transforms cost
// Nc^2 whatever the mask's pixel count, and each focus plane is resampled
// between the two grids once (Interpolate forward, Restrict in the adjoint).
// When Nc == N both resamplings are the identity and are skipped.
type ImagingGrid struct {
	N  int // mask grid side
	K  int // half-width of the optical frequency block
	Nc int // imaging grid side: min(N, NextPow2(4K+1))
}

// NewImagingGrid derives the imaging grid of an n x n mask grid imaged
// through kernels of frequency half-width k.
func NewImagingGrid(n, k int) ImagingGrid {
	if k < 0 || 2*k+1 > n {
		panic(fmt.Sprintf("sim: frequency block half-width %d does not fit grid size %d", k, n))
	}
	nc := fft.NextPow2(4*k + 1)
	if nc > n {
		nc = n
	}
	return ImagingGrid{N: n, K: k, Nc: nc}
}

// Field convolves the band-limited mask spectrum (as returned by
// SpectrumBand) with one kernel's frequency response and returns the complex
// optical field sampled on the imaging grid — every (N/Nc)-th sample of the
// full-grid field FieldFromSpectrum computes. The inverse transform
// normalizes by 1/Nc^2 where the mask-grid one divides by N^2, hence the
// Nc^2/N^2 factor (a power of two, so exact). The returned field comes from
// the workspace pool; release it with grid.PutC when done.
func (g ImagingGrid) Field(specBand, kf *grid.CField) *grid.CField {
	bw := 2*g.K + 1
	scale := float64(g.Nc*g.Nc) / float64(g.N*g.N)
	blk := grid.GetC(bw, bw)
	for i, v := range specBand.Data {
		p := v * kf.Data[i]
		blk.Data[i] = complex(real(p)*scale, imag(p)*scale)
	}
	out := grid.GetC(g.Nc, g.Nc)
	fft.InverseBandLimited(blk, g.Nc, g.Nc, out)
	grid.PutC(blk)
	return out
}

// Image is the SOCS sum of Eq. 2, I = sum_k w_k |M conv h_k|^2, and the one
// place the forward model is written: the kernel fields are computed in
// parallel, each into its own buffer, their squared moduli are folded
// serially in kernel order on the imaging grid, and the sum is interpolated
// to the mask grid once. Parallel over outputs, serial over sums: the bits do
// not depend on how many cores ran it. Fields and image come from the
// workspace pool; release them with grid.PutC and grid.Put.
func (g ImagingGrid) Image(specBand *grid.CField, freqs []*grid.CField, weights []float64) ([]*grid.CField, *grid.Field) {
	fields := make([]*grid.CField, len(freqs))
	par.For(len(freqs), func(k int) {
		fields[k] = g.Field(specBand, freqs[k])
	})
	ic := grid.Get(g.Nc, g.Nc).Zero()
	for k, f := range fields {
		f.AccumAbs2(ic, weights[k])
	}
	return fields, g.Interpolate(ic)
}

// Interpolate Fourier-interpolates a real field of bandwidth 2K — a focus
// plane's intensity sum_k w_k |A_k|^2 — from the imaging grid to the mask
// grid. It is exact: the 4K+1 frequencies the field can hold are distinct on
// both grids. It takes ownership of ic (released to the workspace pool, or
// returned as is when the two grids coincide); the result is the caller's,
// to keep or to release with grid.Put.
func (g ImagingGrid) Interpolate(ic *grid.Field) *grid.Field {
	return g.resample(ic, g.Nc, g.N, float64(g.N*g.N)/float64(g.Nc*g.Nc))
}

// Restrict is the transpose of Interpolate: it carries a mask-grid
// sensitivity dF/dI back to the imaging grid, <Interpolate(x), y> =
// <x, Restrict(y)>. Ownership follows Interpolate.
func (g ImagingGrid) Restrict(w *grid.Field) *grid.Field {
	return g.resample(w, g.N, g.Nc, 1)
}

// resample moves the +/-2K band of src, which must be from x from, to a
// to x to grid, scaling the spectrum by scale, and releases src. Both
// transforms are the real-field ones: the forward block is Hermitian, so
// the inverse's real part is all of its output.
func (g ImagingGrid) resample(src *grid.Field, from, to int, scale float64) *grid.Field {
	if src.W != from || src.H != from {
		panic(fmt.Sprintf("sim: resampling %d -> %d px got a %dx%d field, want %dx%d", from, to, src.W, src.H, from, from))
	}
	if from == to {
		return src
	}
	bw := 4*g.K + 1
	blk := grid.GetC(bw, bw)
	fft.ForwardBandLimitedReal(src, 2*g.K, blk)
	grid.Put(src)
	for i, v := range blk.Data {
		blk.Data[i] = complex(real(v)*scale, imag(v)*scale)
	}
	out := grid.Get(to, to)
	fft.InverseBandLimitedReal(blk, to, out)
	grid.PutC(blk)
	return out
}
