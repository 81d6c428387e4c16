package optics_test

import (
	"math"
	"testing"

	"mosaic/internal/grid"
	"mosaic/internal/optics"
	"mosaic/internal/resist"
	"mosaic/internal/sim"
)

// FuzzConfigValidate: an imaging config with arbitrary float fields is
// either refused by sim.New, or its band limit lies in [0, (N-1)/2] and a
// 32-px simulator images a clear field to a finite intensity. A NaN, a
// panic or a kernel build that fails on a value Validate let through
// fails.
func FuzzConfigValidate(f *testing.F) {
	d := optics.Default()
	f.Add(d.WavelengthNM, d.NA, d.SigmaIn, d.SigmaOut, 16.0)
	f.Add(d.WavelengthNM, d.NA, 0.0, 1.0, 1.0)
	f.Add(248.0, 0.5, 0.0, 0.3, 64.0)
	// The fuzzer's float mutators seldom reach these: a NaN, an infinite
	// pixel, and a finite band whose frequency overflows to +Inf.
	f.Add(d.WavelengthNM, math.NaN(), d.SigmaIn, d.SigmaOut, 16.0)
	f.Add(d.WavelengthNM, d.NA, d.SigmaIn, d.SigmaOut, math.Inf(1))
	f.Add(1e-300, 1e300, d.SigmaIn, d.SigmaOut, 16.0)
	f.Fuzz(func(t *testing.T, wavelength, na, sigmaIn, sigmaOut, pixel float64) {
		c := optics.Config{WavelengthNM: wavelength, NA: na, SigmaIn: sigmaIn, SigmaOut: sigmaOut,
			PixelNM: pixel, GridSize: 32, Kernels: 4}
		s, err := sim.New(c, resist.Default())
		if err != nil {
			return
		}
		if k := c.BandLimitK(); k < 0 || k > (c.GridSize-1)/2 {
			t.Fatalf("band limit %d outside [0, %d]", k, (c.GridSize-1)/2)
		}
		img, err := s.Aerial(grid.New(32, 32).Fill(1), sim.Nominal())
		if err != nil {
			t.Fatalf("admitted config failed to image: %v", err)
		}
		for i, v := range img.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("clear field imaged to a non-finite intensity at pixel %d: %g", i, v)
			}
		}
	})
}
