package sim

import (
	"math/rand"
	"testing"

	"mosaic/internal/fft"
	"mosaic/internal/grid"
	"mosaic/internal/optics"
	"mosaic/internal/resist"
)

// complexOf is s transformed one kernel a unit, as a stack that is not
// paired is.
func complexOf(s *Stack) *Stack {
	return &Stack{Freqs: s.Freqs, Weights: s.Weights, units: s.Freqs}
}

// TestPairedStackImagesLikeComplex images the benchmark's 1024 nm clip on
// 64, 128 and 512 px (imaging grid = mask grid, a half, an eighth) at best
// focus and at 25 nm defocus, through the top-8 and the full 24-kernel
// stack. At best focus the TCC is real, so the top-8 stack has real rank 8
// and runs as four pairs; the 25 nm plane has real rank 2n and keeps one
// transform a kernel, as does the Eq. 21 kernel. Every stack, paired or
// not, must image like the same kernels transformed one at a time and like
// the mask-grid reference (Spectrum + FieldFromSpectrum) to 1e-12 of the
// image's scale, and the adjoint's summed band blocks must have the
// complex stack's real inverse to 1e-12.
func TestPairedStackImagesLikeComplex(t *testing.T) {
	for _, n := range []int{64, 128, 512} {
		c := optics.Default()
		c.GridSize, c.PixelNM = n, 1024/float64(n)
		s, err := New(c, resist.Default())
		if err != nil {
			t.Fatal(err)
		}
		ig := NewImagingGrid(n, c.BandLimitK())
		mask := randMask(n, int64(n))
		band := s.SpectrumBand(mask, ig.K)
		spec := s.Spectrum(mask)
		for _, defocus := range []float64{0, 25} {
			ks, err := s.Kernels(defocus)
			if err != nil {
				t.Fatal(err)
			}
			if comb := CombinedStack(ks); comb.Paired() {
				t.Errorf("%d px %g nm: the Eq. 21 kernel is paired", n, defocus)
			}
			for _, order := range []int{8, len(ks.Freqs)} {
				st := SOCSStack(ks, order)
				_, mu := realForm(ks.Freqs[:order], ks.Weights[:order])
				r := len(mu)
				t.Logf("%d px %g nm top-%d: real rank %d of %d, %d transforms", n, defocus, order, r, 2*order, len(st.Units()))
				switch {
				case defocus == 0 && order == 8 && r != 8:
					t.Errorf("%d px best focus top-8: real rank %d, want 8", n, r)
				case defocus != 0 && r != 2*order:
					t.Errorf("%d px %g nm top-%d: real rank %d, want %d", n, defocus, order, r, 2*order)
				}
				if want := (r+1)/2 < order; st.Paired() != want || st.Paired() && len(st.Units()) != (r+1)/2 {
					t.Errorf("%d px %g nm top-%d: paired %v with %d units at real rank %d", n, defocus, order, st.Paired(), len(st.Units()), r)
				}

				want := grid.New(n, n)
				for i, kf := range ks.Freqs[:order] {
					s.FieldFromSpectrum(spec, kf, ks.K).AccumAbs2(want, ks.Weights[i])
				}
				tol := 1e-12 * maxAbs(want)
				imgs := ig.Image(band, []*Stack{st, complexOf(st)})
				got, cplx := imgs[0], imgs[1]
				if !got.Equal(want, tol) || !got.Equal(cplx, tol) || !cplx.Equal(want, tol) {
					t.Errorf("%d px %g nm top-%d: stack image, complex-stack image and mask-grid reference differ by more than %g", n, defocus, order, tol)
				}
				grid.Put(got)
				grid.Put(cplx)

				if !st.Paired() {
					continue
				}
				gotG, wantG := adjointSum(ig, band, st, n), adjointSum(ig, band, complexOf(st), n)
				if tol := 1e-12 * maxAbs(wantG); !gotG.Equal(wantG, tol) {
					t.Errorf("%d px %g nm top-%d: paired adjoint differs from the complex one by more than %g", n, defocus, order, tol)
				}
			}
		}
		grid.PutC(band)
	}
}

// adjointSum runs the adjoint of every unit of st for one random mask-grid
// sensitivity and returns the real inverse of the summed blocks, the
// gradient the optimizer forms from them.
func adjointSum(ig ImagingGrid, band *grid.CField, st *Stack, n int) *grid.Field {
	wc := ig.Restrict(randField(n, rand.New(rand.NewSource(5))))
	bw := 2*ig.K + 1
	sum := grid.NewC(bw, bw)
	for u, kf := range st.Units() {
		f := ig.Field(band, kf)
		blk := ig.Adjoint(st, u, f, wc)
		sum.AddC(blk)
		grid.PutC(blk)
		grid.PutC(f)
	}
	out := grid.New(n, n)
	fft.InverseBandLimitedReal(sum, n, out)
	return out
}
