package sim

import (
	"fmt"

	"mosaic/internal/cpuid"
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

// Image is the SOCS sum of Eq. 2, I = sum_k w_k |M conv h_k|^2, of each
// stack, for the forward-only callers: one image per stack, in order. The
// unit fields of every stack are computed in one parallel list, each into
// its own buffer, so a stack with fewer units (the paired best-focus plane)
// shares the cores with the others instead of finishing first and idling;
// then the stacks fold in parallel. Parallel over outputs, serial over
// sums: the bits do not depend on how many cores ran it or on which stacks
// were imaged together. The images come from the workspace pool; release
// them with grid.Put.
func (g ImagingGrid) Image(specBand *grid.CField, stacks []*Stack) []*grid.Field {
	type unit struct{ stack, u int }
	var units []unit
	fields := make([][]*grid.CField, len(stacks))
	for si, st := range stacks {
		fields[si] = make([]*grid.CField, len(st.Units()))
		for u := range fields[si] {
			units = append(units, unit{si, u})
		}
	}
	par.For(len(units), func(i int) {
		si, u := units[i].stack, units[i].u
		fields[si][u] = g.Field(specBand, stacks[si].Units()[u])
	})
	imgs := make([]*grid.Field, len(stacks))
	par.For(len(stacks), func(si int) {
		imgs[si] = g.Fold(stacks[si], fields[si])
		for _, f := range fields[si] {
			grid.PutC(f)
		}
	})
	return imgs
}

// Fold is the one place the forward model's sum is written: it folds the
// stack's unit fields serially, in unit order, on the imaging grid —
// w_k*|A_k|^2 per kernel, or mu_a*Re^2 + mu_b*Im^2 per pair — and
// interpolates the sum to the mask grid once. The fields stay the caller's; the image comes from the
// workspace pool.
func (g ImagingGrid) Fold(s *Stack, fields []*grid.CField) *grid.Field {
	ic := grid.Get(g.Nc, g.Nc).Zero()
	for u, f := range fields {
		if !s.Paired() {
			f.AccumAbs2(ic, s.Weights[u])
			continue
		}
		foldPair(ic.Data, f.Data, s.mu[2*u], s.mu[2*u+1])
	}
	return g.Interpolate(ic)
}

// foldPair adds a pair's ma*Re^2 + mb*Im^2 into dst. Where cpuid.PixelAVX
// holds, foldPairAVX runs four pixels a step and the Go loop the tail,
// with the same bits.
func foldPair(dst []float64, f []complex128, ma, mb float64) {
	dst = dst[:len(f)]
	i := 0
	if cpuid.PixelAVX {
		i = foldPairAVX(dst, f, ma, mb)
	}
	for ; i < len(f); i++ {
		re, im := real(f[i]), imag(f[i])
		dst[i] += ma*re*re + mb*im*im
	}
}

// Adjoint returns unit u's band block of the gradient: the +/-K band of
// FFT(wc .* A_u), for the unit's field A_u and an imaging-grid sensitivity
// wc (Restrict's), times 2*w_k*conj(H_k) — or, for a pair, times
// 2*conj(mu_a*E_a + i*mu_b*E_b). The gradient is the real part of the
// inverse of the summed blocks, the inverse of their Hermitian part, and
// that part untangles a pair by Hermitian symmetry: with X_a and X_b the
// Hermitian spectra of wc.*Re A_u and wc.*Im A_u, the one forward block is
// X_a + i*X_b, and the Hermitian part of its product is
// 2*mu_a*conj(E_a)*X_a + 2*mu_b*conj(E_b)*X_b — each real kernel's own
// adjoint term — while the cross terms are anti-Hermitian and drop out. The
// block comes from the workspace pool.
func (g ImagingGrid) Adjoint(s *Stack, u int, field *grid.CField, wc *grid.Field) *grid.CField {
	bw := 2*g.K + 1
	blk := grid.GetC(bw, bw)
	fft.ForwardBandLimited(field, wc, g.K, blk)
	if !s.Paired() {
		scale := complex(2*s.Weights[u], 0)
		for i, kv := range s.Freqs[u].Data {
			blk.Data[i] = blk.Data[i] * complex(real(kv), -imag(kv)) * scale
		}
		return blk
	}
	ma, mb := 2*s.mu[2*u], 2*s.mu[2*u+1]
	a, b := s.real[2*u].Data, s.real[2*u+1].Data
	for i, av := range a {
		bv := b[i]
		blk.Data[i] *= complex(ma*real(av)-mb*imag(bv), -(ma*imag(av) + mb*real(bv)))
	}
	return blk
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
