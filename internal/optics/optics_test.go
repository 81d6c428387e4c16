package optics

import (
	"math"
	"math/cmplx"
	"strings"
	"testing"
)

// testConfig is a small, fast configuration used across the test suite:
// a 512 nm clip at 8 nm/px keeps the TCC small (band limit ~7 samples).
func testConfig() Config {
	c := Default()
	c.GridSize = 64
	c.PixelNM = 8
	c.Kernels = 8
	return c
}

func TestValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.WavelengthNM = 0 },
		func(c *Config) { c.NA = -1 },
		func(c *Config) { c.SigmaOut = 0 },
		func(c *Config) { c.SigmaOut = 1.5 },
		func(c *Config) { c.SigmaIn = 0.95 }, // >= SigmaOut
		func(c *Config) { c.PixelNM = 0 },
		func(c *Config) { c.GridSize = 100 }, // not a power of two
		func(c *Config) { c.Kernels = 0 },
	}
	for i, mutate := range bad {
		c := Default()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	// A non-finite float passes every comparison-only bound (a NaN fails
	// each <=), so each field is refused by name.
	for _, f := range []struct {
		name string
		p    func(*Config) *float64
	}{
		{"WavelengthNM", func(c *Config) *float64 { return &c.WavelengthNM }},
		{"NA", func(c *Config) *float64 { return &c.NA }},
		{"SigmaIn", func(c *Config) *float64 { return &c.SigmaIn }},
		{"SigmaOut", func(c *Config) *float64 { return &c.SigmaOut }},
		{"PixelNM", func(c *Config) *float64 { return &c.PixelNM }},
	} {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			c := Default()
			*f.p(&c) = v
			if err := c.Validate(); err == nil || !strings.Contains(err.Error(), f.name+" must be finite") {
				t.Errorf("%s = %g: err = %v, want it refused by name", f.name, v, err)
			}
		}
	}
}

func TestBandLimitK(t *testing.T) {
	c := testConfig()
	k := c.BandLimitK()
	fmax := (1 + c.SigmaOut) * c.NA / c.WavelengthNM
	// k must cover fmax but not wildly exceed it.
	df := 1 / c.FieldNM()
	if float64(k)*df < fmax {
		t.Fatalf("band limit %d too small for fmax %g", k, fmax)
	}
	if float64(k-2)*df > fmax {
		t.Fatalf("band limit %d too generous for fmax %g", k, fmax)
	}
}

func TestPupil(t *testing.T) {
	c := testConfig()
	cut := c.NA / c.WavelengthNM
	if got := c.Pupil(0, 0, 0); got != 1 {
		t.Fatalf("on-axis pupil = %v, want 1", got)
	}
	if got := c.Pupil(cut*1.01, 0, 0); got != 0 {
		t.Fatalf("outside-aperture pupil = %v, want 0", got)
	}
	// Defocus only adds phase: modulus stays 1 inside the aperture.
	v := c.Pupil(cut/2, cut/3, 25)
	if math.Abs(cmplx.Abs(v)-1) > 1e-12 {
		t.Fatalf("defocused pupil modulus %g, want 1", cmplx.Abs(v))
	}
	if imag(v) == 0 {
		t.Fatal("defocus did not introduce phase")
	}
}

func TestSourcePoints(t *testing.T) {
	c := testConfig()
	pts, w := c.SourcePoints()
	if len(pts) == 0 {
		t.Fatal("no source points")
	}
	if math.Abs(w*float64(len(pts))-1) > 1e-12 {
		t.Fatalf("weights do not sum to 1: %g * %d", w, len(pts))
	}
	rOut := c.SigmaOut * c.NA / c.WavelengthNM
	rIn := c.SigmaIn * c.NA / c.WavelengthNM
	for _, p := range pts {
		r := math.Hypot(p[0], p[1])
		if r > rOut*(1+1e-12) || r < rIn*(1-1e-12) {
			t.Fatalf("source point at radius %g outside annulus [%g, %g]", r, rIn, rOut)
		}
	}
}

func TestTCCHermitianPSD(t *testing.T) {
	c := testConfig()
	tm := BuildTCC(c, 0)
	if !tm.IsHermitian(1e-12) {
		t.Fatal("TCC not Hermitian")
	}
	// Diagonal of a PSD matrix is non-negative.
	for i := 0; i < tm.R; i++ {
		if real(tm.At(i, i)) < -1e-12 {
			t.Fatalf("negative TCC diagonal %g at %d", real(tm.At(i, i)), i)
		}
	}
}

func TestBuildKernels(t *testing.T) {
	ks, err := BuildKernels(testConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ks.Freqs) == 0 || len(ks.Freqs) != len(ks.Weights) {
		t.Fatalf("bad kernel set: %d kernels, %d weights", len(ks.Freqs), len(ks.Weights))
	}
	for i := 1; i < len(ks.Weights); i++ {
		if ks.Weights[i] > ks.Weights[i-1]+1e-15 {
			t.Fatalf("weights not descending: %v", ks.Weights)
		}
	}
	for i, w := range ks.Weights {
		if w <= 0 {
			t.Fatalf("non-positive weight %g at %d", w, i)
		}
	}
	// Open-frame normalization: sum_k w_k |freq_k(DC)|^2 == 1.
	dc := 0.0
	for i, f := range ks.Freqs {
		v := f.At(ks.K, ks.K)
		dc += ks.Weights[i] * (real(v)*real(v) + imag(v)*imag(v))
	}
	if math.Abs(dc-1) > 1e-9 {
		t.Fatalf("open-frame intensity %g, want 1", dc)
	}
}

func TestDefocusChangesKernels(t *testing.T) {
	c := testConfig()
	nom, err := BuildKernels(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	def, err := BuildKernels(c, 25)
	if err != nil {
		t.Fatal(err)
	}
	// The dominant kernel must differ measurably under 25 nm defocus.
	d := 0.0
	for i, v := range nom.Freqs[0].Data {
		d += cmplx.Abs(v - def.Freqs[0].Data[i])
	}
	if d < 1e-6 {
		t.Fatal("defocus kernel identical to nominal")
	}
}

func TestCombinedDCUnit(t *testing.T) {
	ks, err := BuildKernels(testConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	h := ks.Combined()
	if math.Abs(cmplx.Abs(h.At(ks.K, ks.K))-1) > 1e-9 {
		t.Fatalf("combined kernel DC magnitude %g, want 1", cmplx.Abs(h.At(ks.K, ks.K)))
	}
}

func TestKernelsCache(t *testing.T) {
	c := testConfig()
	a, err := Kernels(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Kernels(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("cache miss for identical config")
	}
	d, err := Kernels(c, 25)
	if err != nil {
		t.Fatal(err)
	}
	if d == a {
		t.Fatal("cache collision across defocus values")
	}
}

func TestFirstKernelDominates(t *testing.T) {
	// Physics sanity: the leading SOCS weight should carry a large share of
	// the total for conventional illumination.
	ks, err := BuildKernels(testConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, w := range ks.Weights {
		total += w
	}
	if ks.Weights[0]/total < 0.3 {
		t.Fatalf("leading kernel weight share %g suspiciously small", ks.Weights[0]/total)
	}
}
