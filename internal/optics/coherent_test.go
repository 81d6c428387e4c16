package optics

import (
	"math"
	"testing"
	"testing/quick"
)

// TestCoherentLimitRankOne: with a point source (sigma -> 0) the TCC is an
// outer product P P^H, so the SOCS decomposition collapses to a single
// significant kernel.
func TestCoherentLimitRankOne(t *testing.T) {
	c := Default()
	c.GridSize = 64
	c.PixelNM = 8
	c.SigmaIn = 0
	c.SigmaOut = 1e-4 // effectively a single on-axis point
	c.Kernels = 6
	ks, err := BuildKernels(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ks.Weights) == 0 {
		t.Fatal("no kernels")
	}
	for i := 1; i < len(ks.Weights); i++ {
		if ks.Weights[i] > 1e-6*ks.Weights[0] {
			t.Fatalf("coherent system has a second mode: w[%d]=%g vs w[0]=%g",
				i, ks.Weights[i], ks.Weights[0])
		}
	}
}

// TestPupilPhaseQuadratic: the defocus phase grows quadratically with
// frequency (property-based).
func TestPupilPhaseQuadratic(t *testing.T) {
	c := Default()
	cut := c.NA / c.WavelengthNM
	f := func(frac float64) bool {
		frac = math.Mod(math.Abs(frac), 0.99)
		fr := frac * cut
		v1 := c.Pupil(fr, 0, 40)
		v2 := c.Pupil(0, fr, 40) // rotational symmetry
		return math.Abs(real(v1)-real(v2)) < 1e-12 && math.Abs(imag(v1)-imag(v2)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestSourceSymmetry: the annular source point set is symmetric under
// (fx, fy) -> (-fx, -fy), which is what makes +/- defocus images equal.
func TestSourceSymmetry(t *testing.T) {
	c := Default()
	pts, _ := c.SourcePoints()
	const tol = 1e-12
	for _, p := range pts {
		found := false
		for _, q := range pts {
			if math.Abs(q[0]+p[0]) < tol && math.Abs(q[1]+p[1]) < tol {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("source point %v has no mirror", p)
		}
	}
}
