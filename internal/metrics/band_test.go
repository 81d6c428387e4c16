package metrics

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"mosaic/internal/cpuid"
	"mosaic/internal/resist"
)

// edgeValues are what a lane can meet besides ordinary intensities:
// signed zeros, subnormals, infinities and NaN.
var edgeValues = []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2e-308, math.Inf(1), math.Inf(-1), math.NaN()}

// bandCase spreads the float64 bit patterns of data over ne exposures of
// n pixels, their doses and the threshold, cycling through data.
func bandCase(ne, n int, data []byte) ([]Exposure, float64) {
	k := 0
	next := func() float64 {
		if len(data) < 8 {
			return 0
		}
		off := 8 * (k % (len(data) / 8))
		k++
		return math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
	}
	exps := make([]Exposure, ne)
	for e := range exps {
		exps[e].I = make([]float64, n)
		for i := range exps[e].I {
			exps[e].I[i] = next()
		}
		exps[e].Dose = next()
	}
	return exps, next()
}

// checkBand holds BandPixels over every [lo, n) to its Go loop.
func checkBand(t *testing.T, exps []Exposure, th float64, n int) {
	t.Helper()
	defer func(v bool) { cpuid.PixelAVX = v }(cpuid.PixelAVX)
	rm := resist.Model{Threshold: th}
	for lo := range min(n, 5) + 1 {
		cpuid.PixelAVX = false
		want := BandPixels(rm, exps, lo, n)
		cpuid.PixelAVX = cpuid.AVX
		if got := BandPixels(rm, exps, lo, n); got != want {
			t.Fatalf("%d exposures over [%d, %d), threshold %v: vector %d, Go %d", len(exps), lo, n, th, got, want)
		}
	}
}

// TestBandPixelsKernelMatchesGo: on every length 0-67 and one to four
// exposures, intensities salted with edgeValues count the same band on
// the vector kernel as on the Go loop.
func TestBandPixelsKernelMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	for n := range 68 {
		for ne := 1; ne <= 4; ne++ {
			exps := make([]Exposure, ne)
			for e := range exps {
				exps[e] = Exposure{I: make([]float64, n), Dose: 1 + 0.02*float64(e-1)}
				for i := range exps[e].I {
					exps[e].I[i] = 0.225 + 0.01*rng.NormFloat64()
					if rng.Intn(8) == 0 {
						exps[e].I[i] = edgeValues[rng.Intn(len(edgeValues))]
					}
				}
			}
			checkBand(t, exps, 0.225, n)
		}
	}
}

// FuzzBandPixels: for arbitrary intensity, dose and threshold bits, one to
// four exposures and lengths 0-67, the vector kernel counts the band the
// Go loop counts.
func FuzzBandPixels(f *testing.F) {
	bits := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(uint8(3), uint8(67), bits(0.2, 0.3, 0.22, 0.23, 1, 0.98, 1.02, 0.225))
	f.Add(uint8(2), uint8(9), bits(append(edgeValues, 0.225)...))
	f.Add(uint8(4), uint8(5), bits(math.NaN(), 1, math.Inf(1), 0, math.Copysign(0, -1), 5e-324))
	f.Fuzz(func(t *testing.T, ne, n uint8, data []byte) {
		if !cpuid.AVX {
			t.Skip("no AVX: the Go loop is the only path")
		}
		exps, th := bandCase(1+int(ne%4), int(n%68), data)
		checkBand(t, exps, th, int(n%68))
	})
}

// BenchmarkPassBandPixels is the band count of a descent step at the
// benchmark's 128-px grid, three exposures, on the Go loop and the
// kernel.
func BenchmarkPassBandPixels(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	exps := make([]Exposure, 3)
	for e := range exps {
		exps[e] = Exposure{I: make([]float64, 128*128), Dose: []float64{1, 0.98, 1.02}[e]}
		for i := range exps[e].I {
			exps[e].I[i] = 0.225 + 0.02*rng.NormFloat64()
		}
	}
	rm := resist.Model{Threshold: 0.225}
	defer func(v bool) { cpuid.PixelAVX = v }(cpuid.PixelAVX)
	for _, path := range []string{"go", "vector"} {
		if path == "vector" && !cpuid.AVX {
			continue
		}
		b.Run(path, func(b *testing.B) {
			cpuid.PixelAVX = path == "vector"
			for b.Loop() {
				BandPixels(rm, exps, 0, len(exps[0].I))
			}
		})
	}
}
