package sim

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"mosaic/internal/fft"
	"mosaic/internal/grid"
	"mosaic/internal/optics"
	"mosaic/internal/resist"
)

func TestImagingGridSize(t *testing.T) {
	for _, tc := range []struct{ n, k, nc int }{
		{128, 14, 64}, {256, 14, 64}, {512, 14, 64}, {1024, 14, 64}, // 1024 nm field, any pixel size
		{64, 7, 32},   // 512 nm field at 8 nm/px
		{64, 14, 64},  // 4K+1 = 57 -> 64 = N: resampling skipped
		{32, 14, 32},  // 4K+1 exceeds the mask grid: capped
		{256, 15, 64}, // 4K+1 = 61
		{256, 16, 128},
	} {
		if ig := NewImagingGrid(tc.n, tc.k); ig.Nc != tc.nc || ig.N != tc.n || ig.K != tc.k {
			t.Errorf("NewImagingGrid(%d, %d) = %+v, want Nc %d", tc.n, tc.k, ig, tc.nc)
		}
	}
}

func randField(w int, rng *rand.Rand) *grid.Field {
	f := grid.New(w, w)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	return f
}

// resamplingGrids returns the imaging grids of the configurations the repo
// runs plus count random (N, K) pairs whose imaging grid is smaller than the
// mask grid, 4K+1 <= N/2.
func resamplingGrids(rng *rand.Rand, count int) []ImagingGrid {
	igs := []ImagingGrid{NewImagingGrid(128, 14), NewImagingGrid(256, 14), NewImagingGrid(256, 16), NewImagingGrid(64, 7)}
	for len(igs) < 4+count {
		n := 16 << rng.Intn(5) // 16 ... 256
		igs = append(igs, NewImagingGrid(n, 1+rng.Intn((n/2-1)/4)))
	}
	return igs
}

// TestResamplingIsAdjointPair: Restrict is the transpose of Interpolate,
// <U x, y> = <x, U^T y>, on arbitrary (not band-limited) fields. Both calls
// consume their argument, hence the clones.
func TestResamplingIsAdjointPair(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, ig := range resamplingGrids(rng, 12) {
		if ig.Nc == ig.N {
			t.Fatalf("%+v does not resample", ig)
		}
		for trial := 0; trial < 3; trial++ {
			x, y := randField(ig.Nc, rng), randField(ig.N, rng)
			ux := ig.Interpolate(x.Clone())
			uty := ig.Restrict(y.Clone())
			if ux.W != ig.N || uty.W != ig.Nc {
				t.Fatalf("%+v: Interpolate gave %d px, Restrict %d px", ig, ux.W, uty.W)
			}
			lhs, rhs := ux.Dot(y), x.Dot(uty)
			if d := math.Abs(lhs - rhs); d > 1e-12*math.Max(math.Abs(lhs), 1) {
				t.Errorf("%+v trial %d: <Ux,y> = %.17g, <x,U^T y> = %.17g", ig, trial, lhs, rhs)
			}
		}
	}
}

// denseResample is the reference for both resamplings: the full forward
// transform of src, its +/-2K band scaled and embedded in a to x to
// spectrum, the full inverse, the real part.
func denseResample(src *grid.Field, k, to int, scale float64) *grid.Field {
	spec := grid.ToComplex(src)
	fft.Forward2D(spec)
	full := fft.EmbedCenter(fft.ExtractCenter(spec, 2*k).ScaleC(complex(scale, 0)), to, to)
	fft.Inverse2D(full)
	out := grid.New(to, to)
	for i, v := range full.Data {
		out.Data[i] = real(v)
	}
	return out
}

// TestResamplingMatchesDenseReference pins Interpolate and Restrict, which
// run the real-field transforms, to the dense complex path at 1e-12 of the
// result's scale on arbitrary fields.
func TestResamplingMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, ig := range resamplingGrids(rng, 12) {
		x, y := randField(ig.Nc, rng), randField(ig.N, rng)
		up := denseResample(x, ig.K, ig.N, float64(ig.N*ig.N)/float64(ig.Nc*ig.Nc))
		if got := ig.Interpolate(x); !got.Equal(up, 1e-12*maxAbs(up)) {
			t.Errorf("%+v: Interpolate differs from the dense reference", ig)
		}
		down := denseResample(y, ig.K, ig.Nc, 1)
		if got := ig.Restrict(y); !got.Equal(down, 1e-12*maxAbs(down)) {
			t.Errorf("%+v: Restrict differs from the dense reference", ig)
		}
	}
}

// TestResamplingSkippedWhenGridsCoincide: with Nc == N both resamplings
// hand their argument back untouched.
func TestResamplingSkippedWhenGridsCoincide(t *testing.T) {
	ig := NewImagingGrid(64, 14)
	f := randField(64, rand.New(rand.NewSource(1)))
	if ig.Interpolate(f) != f || ig.Restrict(f) != f {
		t.Fatal("resampling on coinciding grids must be the identity")
	}
}

// TestResamplingRefusesWrongSizedSource: a field that is not of the side
// the resampling starts from — a mask-grid field handed to Interpolate, an
// imaging-grid one to Restrict, either to a pass-through grid — used to be
// resampled onto a result of the wrong scale, or handed back, in silence.
func TestResamplingRefusesWrongSizedSource(t *testing.T) {
	up, same := NewImagingGrid(128, 14), NewImagingGrid(64, 14)
	for name, tc := range map[string]struct {
		call func()
		want string
	}{
		"Interpolate":              {func() { up.Interpolate(grid.New(128, 128)) }, "sim: resampling 64 -> 128 px got a 128x128 field, want 64x64"},
		"Restrict":                 {func() { up.Restrict(grid.New(64, 64)) }, "sim: resampling 128 -> 64 px got a 64x64 field, want 128x128"},
		"Interpolate pass-through": {func() { same.Interpolate(grid.New(32, 32)) }, "sim: resampling 64 -> 64 px got a 32x32 field, want 64x64"},
		"Restrict pass-through":    {func() { same.Restrict(grid.New(64, 32)) }, "sim: resampling 64 -> 64 px got a 64x32 field, want 64x64"},
	} {
		func() {
			defer func() {
				if got := recover(); got != tc.want {
					t.Errorf("%s: panic %v, want %q", name, got, tc.want)
				}
			}()
			tc.call()
		}()
	}
}

// TestAerialMatchesFullGridReference pins Aerial and AerialCombined — kernel
// fields on the imaging grid, one interpolation per image — to the
// mask-grid reference sum (Spectrum + FieldFromSpectrum: full transforms,
// no pruning, no resampling) at 1e-12 on random binary masks, across grids
// where the imaging grid is a half, a quarter and all of the mask grid.
func TestAerialMatchesFullGridReference(t *testing.T) {
	for _, tc := range []struct {
		n  int
		px float64
		nc int
	}{
		{128, 8, 64}, // the repo benchmark's clip grid
		{256, 4, 64}, // same field, finer pixels: same imaging grid
		{64, 8, 32},  // the unit-test grid
		{64, 16, 64}, // Nc == N: resampling skipped
	} {
		c := optics.Default()
		c.GridSize, c.PixelNM, c.Kernels = tc.n, tc.px, 6
		s, err := New(c, resist.Default())
		if err != nil {
			t.Fatal(err)
		}
		for _, corner := range ProcessCorners(25, 0.02)[:2] {
			ks, err := s.Kernels(corner.DefocusNM)
			if err != nil {
				t.Fatal(err)
			}
			if ig := NewImagingGrid(tc.n, ks.K); ig.Nc != tc.nc {
				t.Fatalf("%d px / %g nm: imaging grid %d, want %d", tc.n, tc.px, ig.Nc, tc.nc)
			}
			for seed := int64(0); seed < 2; seed++ {
				mask := randMask(tc.n, seed)
				spec := s.Spectrum(mask)
				want := grid.New(tc.n, tc.n)
				for i, kf := range ks.Freqs {
					s.FieldFromSpectrum(spec, kf, ks.K).AccumAbs2(want, ks.Weights[i])
				}
				got, err := s.Aerial(mask, corner)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want, 1e-12) {
					t.Errorf("%d px / %g nm %s seed %d: Aerial differs from the full-grid SOCS sum", tc.n, tc.px, corner.Name, seed)
				}
				wantComb := s.FieldFromSpectrum(spec, ks.Combined(), ks.K).Abs2()
				gotComb, err := s.AerialCombined(mask, corner)
				if err != nil {
					t.Fatal(err)
				}
				if !gotComb.Equal(wantComb, 1e-12) {
					t.Errorf("%d px / %g nm %s seed %d: AerialCombined differs from the full-grid field", tc.n, tc.px, corner.Name, seed)
				}
			}
		}
	}
}

// TestImagingGridAliasBoundary drives the forward and adjoint resampling
// with synthetic band half-widths on either side of a power of two: K = 15
// (4K+1 = 61, imaging grid 64) and K = 16 (65, imaging grid 128). Random
// band-K fields A and random full-bandwidth sensitivities W must give, on the
// imaging grid, the mask-grid field samples, the mask-grid intensity |A|^2
// and the mask-grid adjoint band FFT(W.A)[-K..K] to 1e-12 — a 4K+1 rule off
// by one would image K = 16 on 64 samples and alias both.
func TestImagingGridAliasBoundary(t *testing.T) {
	const n = 256
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct{ k, nc int }{{15, 64}, {16, 128}} {
		ig := NewImagingGrid(n, tc.k)
		if ig.Nc != tc.nc {
			t.Fatalf("K = %d: imaging grid %d, want %d", tc.k, ig.Nc, tc.nc)
		}
		bw := 2*tc.k + 1
		spec, kf := grid.NewC(bw, bw), grid.NewC(bw, bw)
		for i := range spec.Data {
			// Scaled so the field is O(1) after the 1/N^2 of the inverse.
			spec.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64()) * complex(float64(n*n)/float64(bw), 0)
			kf.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}

		// Mask-grid reference: embed, full inverse.
		prod := spec.Clone().MulC(kf)
		full := fft.EmbedCenter(prod, n, n)
		fft.Inverse2D(full)
		ac := ig.Field(spec, kf)
		if d := maxSampleDiff(ac, full); d > 1e-12 {
			t.Fatalf("K = %d: imaging-grid field off the mask-grid samples by %g", tc.k, d)
		}

		// Forward: |A|^2 interpolated from the imaging grid.
		if got, want := ig.Interpolate(ac.Abs2()), full.Abs2(); !got.Equal(want, 1e-12*maxAbs(want)) {
			t.Errorf("K = %d: interpolated intensity differs from the mask-grid one", tc.k)
		}

		// Adjoint: the +/-K band of FFT(W .* A).
		w := randField(n, rng)
		term := full.Clone()
		for i := range term.Data {
			term.Data[i] *= complex(w.Data[i], 0)
		}
		fft.Forward2D(term)
		want := fft.ExtractCenter(term, tc.k)
		wc := ig.Restrict(w)
		got := grid.NewC(bw, bw)
		fft.ForwardBandLimited(ac, wc, tc.k, got)
		scale := 0.0
		for _, v := range want.Data {
			scale = math.Max(scale, cmplx.Abs(v))
		}
		if !got.EqualC(want, 1e-12*scale) {
			t.Errorf("K = %d: imaging-grid adjoint band differs from the mask-grid one", tc.k)
		}
	}
}

// maxSampleDiff returns the largest distance between an imaging-grid field
// and the every-(N/Nc)-th samples of the mask-grid field it should equal.
func maxSampleDiff(coarse, full *grid.CField) float64 {
	step := full.W / coarse.W
	maxDiff := 0.0
	for y := 0; y < coarse.H; y++ {
		for x := 0; x < coarse.W; x++ {
			maxDiff = math.Max(maxDiff, cmplx.Abs(coarse.At(x, y)-full.At(x*step, y*step)))
		}
	}
	return maxDiff
}

func maxAbs(f *grid.Field) float64 {
	lo, hi := f.MinMax()
	return math.Max(math.Abs(lo), math.Abs(hi))
}
