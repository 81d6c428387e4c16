package fft

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"mosaic/internal/cpuid"
)

// edgeValues are what a lane can meet besides ordinary values: signed
// zeros, subnormals, infinities and NaN.
var edgeValues = []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2e-308, math.Inf(1), math.Inf(-1), math.NaN()}

// checkLines holds weightedFill over a line of n to its Go loop, bit for
// bit with NaN by NaN-ness (it multiplies).
func checkLines(t *testing.T, n int, next func() float64) {
	t.Helper()
	defer func(v bool) { cpuid.PixelAVX = v }(cpuid.PixelAVX)
	src, w := make([]complex128, n), make([]float64, n)
	for x := range src {
		src[x], w[x] = complex(next(), next()), next()
	}
	run := func(on bool) []complex128 {
		cpuid.PixelAVX = on
		row := make([]complex128, n)
		weightedFill(row, src, w, getPlan(n).rev)
		return row
	}
	want, got := run(false), run(cpuid.AVX)
	for i, g := range got {
		if !sameNaN(real(g), real(want[i])) || !sameNaN(imag(g), imag(want[i])) {
			t.Fatalf("fill n=%d: vector [%d] = %v, Go %v", n, i, g, want[i])
		}
	}
}

// sameNaN reports whether a and b have the same bits or are both NaN.
func sameNaN(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// TestLineKernelsMatchGo: at every power-of-two length from 2 to 1024,
// with values salted with edgeValues, the weighted bit-reversed fill gives
// the Go loop's bits.
func TestLineKernelsMatchGo(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	next := func() float64 {
		if rng.Intn(8) == 0 {
			return edgeValues[rng.Intn(len(edgeValues))]
		}
		return rng.NormFloat64()
	}
	for n := 2; n <= 1024; n *= 2 {
		checkLines(t, n, next)
	}
}

// FuzzLines: for arbitrary bits in the line and weights and a
// power-of-two length from 2 to 1024, the fill gives the Go loop's bits.
func FuzzLines(f *testing.F) {
	bits := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(uint8(6), bits(1, 2, 3, 0.25, 0.125))
	f.Add(uint8(1), bits(edgeValues...))
	f.Add(uint8(3), bits(math.NaN(), math.Inf(1), 1e308, math.Copysign(0, -1), 5e-324, -1))
	f.Fuzz(func(t *testing.T, logn uint8, data []byte) {
		if !cpuid.AVX {
			t.Skip("no AVX: the Go loops are the only path")
		}
		k := 0
		next := func() float64 {
			if len(data) < 8 {
				return 0
			}
			off := 8 * (k % (len(data) / 8))
			k++
			return math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
		}
		checkLines(t, 2<<(logn%10), next)
	})
}

// BenchmarkPassFill is one adjoint row fill of the benchmark's 64-px
// imaging grid, on the Go loop and the kernel.
func BenchmarkPassFill(b *testing.B) {
	const n = 64
	rng := rand.New(rand.NewSource(1))
	src, w, row := randVec(n, rng), make([]float64, n), make([]complex128, n)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	rev := getPlan(n).rev
	benchPaths(b, func() { weightedFill(row, src, w, rev) })
}

// benchPaths runs f as a go and, where the host has AVX, a vector
// sub-benchmark, with both switches (cpuid.PixelAVX and vector) held to
// the path.
func benchPaths(b *testing.B, f func()) {
	defer func(v bool) { cpuid.PixelAVX = v }(cpuid.PixelAVX)
	for _, path := range paths() {
		b.Run(path, func(b *testing.B) {
			cpuid.PixelAVX = path == "vector"
			onPath(path, func() {
				for b.Loop() {
					f()
				}
			})
		})
	}
}
