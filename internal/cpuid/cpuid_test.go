package cpuid

import "testing"

// TestFeaturesNest: the sigmoid's features imply the FFT's, as every
// AVX2+FMA part has AVX.
func TestFeaturesNest(t *testing.T) {
	t.Logf("AVX %v, AVX2+FMA %v", AVX, AVX2FMA)
	if AVX2FMA && !AVX {
		t.Fatal("AVX2+FMA without AVX")
	}
}
