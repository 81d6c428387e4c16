package cpuid

import "testing"

// TestFeaturesNest: the sigmoid's features imply the FFT's, as every
// AVX2+FMA part has AVX, and the per-pixel kernels need AVX alone.
func TestFeaturesNest(t *testing.T) {
	t.Logf("AVX %v, AVX2+FMA %v, per-pixel kernels %v", AVX, AVX2FMA, PixelAVX)
	if AVX2FMA && !AVX {
		t.Fatal("AVX2+FMA without AVX")
	}
	if PixelAVX != AVX {
		t.Fatal("the per-pixel kernels are selected on a host without AVX, or off on one with it")
	}
}
