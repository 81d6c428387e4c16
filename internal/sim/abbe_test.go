package sim

import (
	"math"
	"testing"

	"mosaic/internal/bench"
	"mosaic/internal/grid"
	"mosaic/internal/optics"
	"mosaic/internal/resist"
)

// abbeImage is the Abbe image of mask at the given defocus: one coherent
// image per point of the discretised source, I = w·Σ_s |IFFT(P(f+f_s)·M̂)|²
// over Config.SourcePoints(), with no eigensolver involved. The pupil is
// sampled on the central block of BandLimitK, as the TCC is, and the sum is
// normalised as the SOCS weights are, so a clear mask images to 1. SOCS at
// full rank is this sum regrouped; at any lower order it is a truncation of
// it.
func abbeImage(s *Simulator, mask *grid.Field, defocusNM float64) *grid.Field {
	c := s.Cfg
	k := c.BandLimitK()
	n := 2*k + 1
	df := 1 / c.FieldNM()
	pts, w := c.SourcePoints()
	spec := s.Spectrum(mask)
	img := grid.New(mask.W, mask.H)
	open := 0.0
	for _, p := range pts {
		h := grid.NewC(n, n)
		for iy := -k; iy <= k; iy++ {
			for ix := -k; ix <= k; ix++ {
				h.Set(ix+k, iy+k, c.Pupil(float64(ix)*df+p[0], float64(iy)*df+p[1], defocusNM))
			}
		}
		dc := h.At(k, k)
		open += w * (real(dc)*real(dc) + imag(dc)*imag(dc))
		s.FieldFromSpectrum(spec, h, k).AccumAbs2(img, w)
	}
	for i := range img.Data {
		img.Data[i] /= open
	}
	return img
}

// relDiff returns ‖a − b‖ / ‖b‖ in the L2 norm.
func relDiff(a, b *grid.Field) float64 {
	num, den := 0.0, 0.0
	for i, v := range b.Data {
		d := a.Data[i] - v
		num += d * d
		den += v * v
	}
	return math.Sqrt(num / den)
}

// transposed and mirrored return mask under the two D4 generators of the
// raster: (x, y) → (y, x) and x → n−1−x.
func transposed(f *grid.Field) *grid.Field {
	out := grid.New(f.H, f.W)
	for y := 0; y < f.H; y++ {
		for x := 0; x < f.W; x++ {
			out.Set(y, x, f.At(x, y))
		}
	}
	return out
}

func mirrored(f *grid.Field) *grid.Field {
	out := grid.New(f.W, f.H)
	for y := 0; y < f.H; y++ {
		for x := 0; x < f.W; x++ {
			out.Set(f.W-1-x, y, f.At(x, y))
		}
	}
	return out
}

// TestAbbeOracle holds the independent Abbe image to the symmetries of the
// annular source: the image of a transposed or mirrored mask is the
// transposed or mirrored image, to 1e-12 relative, in and out of focus. A
// clear mask images to 1. It logs, without asserting, how far the SOCS
// image at K = 24 is from the Abbe image on B1 and B4 at 64 px: the
// eigensolver's kernels past the first few are not converged, so the
// full-rank equality waits on a solver that converges them.
func TestAbbeOracle(t *testing.T) {
	c := optics.Default()
	c.GridSize, c.PixelNM, c.Kernels = 64, 16, 24
	s, err := New(c, resist.Default())
	if err != nil {
		t.Fatal(err)
	}
	clear := grid.New(c.GridSize, c.GridSize)
	for i := range clear.Data {
		clear.Data[i] = 1
	}
	if lo, hi := abbeImage(s, clear, 0).MinMax(); math.Abs(lo-1) > 1e-12 || math.Abs(hi-1) > 1e-12 {
		t.Errorf("clear mask images to [%g, %g], want 1", lo, hi)
	}

	for _, name := range []string{"B1", "B4"} {
		layout, err := bench.Layout(name)
		if err != nil {
			t.Fatal(err)
		}
		mask := layout.Rasterize(c.GridSize, c.PixelNM)
		for _, corner := range ProcessCorners(25, 0.02)[:2] {
			abbe := abbeImage(s, mask, corner.DefocusNM)
			if d := relDiff(abbeImage(s, transposed(mask), corner.DefocusNM), transposed(abbe)); d > 1e-12 {
				t.Errorf("%s %s: Abbe image of the transposed mask is off the transposed image by %.3g", name, corner.Name, d)
			}
			if d := relDiff(abbeImage(s, mirrored(mask), corner.DefocusNM), mirrored(abbe)); d > 1e-12 {
				t.Errorf("%s %s: Abbe image of the mirrored mask is off the mirrored image by %.3g", name, corner.Name, d)
			}
			socs, err := s.Aerial(mask, corner)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s %s, 64 px: ‖I_SOCS(K=%d) − I_Abbe‖ / ‖I_Abbe‖ = %.3g", name, corner.Name, c.Kernels, relDiff(socs, abbe))
		}
	}
}
