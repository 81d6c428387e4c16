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

// checkLines holds weightedFill and storePairs over a line of n to their
// Go loops: the fill bit for bit with NaN by NaN-ness (it multiplies), the
// store every bit, NaN payloads included (it only moves).
func checkLines(t *testing.T, n int, next func() float64) {
	t.Helper()
	defer func(v bool) { cpuid.PixelAVX = v }(cpuid.PixelAVX)
	src, w := make([]complex128, n), make([]float64, n)
	for x := range src {
		src[x], w[x] = complex(next(), next()), next()
	}
	lines := make([]complex128, pairBlock*n)
	for i := range lines {
		lines[i] = complex(next(), next())
	}
	run := func(on bool) ([]complex128, []float64) {
		cpuid.PixelAVX = on
		row := make([]complex128, n)
		weightedFill(row, src, w, getPlan(n).rev)
		dst := make([]float64, n*max(n, 2*pairBlock))
		storePairs(dst, lines, n, pairBlock)
		return row, dst
	}
	wantRow, wantDst := run(false)
	gotRow, gotDst := run(cpuid.AVX)
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	}
	for i, g := range gotRow {
		if !same(real(g), real(wantRow[i])) || !same(imag(g), imag(wantRow[i])) {
			t.Fatalf("fill n=%d: vector [%d] = %v, Go %v", n, i, g, wantRow[i])
		}
	}
	for i, g := range gotDst {
		if math.Float64bits(g) != math.Float64bits(wantDst[i]) {
			t.Fatalf("store n=%d: vector [%d] = %#x, Go %#x", n, i, math.Float64bits(g), math.Float64bits(wantDst[i]))
		}
	}
}

// TestLineKernelsMatchGo: at every power-of-two length from 2 to 1024,
// with values salted with edgeValues, the weighted bit-reversed fill and
// the paired column store give the Go loops' bits.
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

// FuzzLines: for arbitrary bits in the lines and weights and a
// power-of-two length from 2 to 1024, the fill and the store give the Go
// loops' bits.
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
// imaging grid, and BenchmarkPassStore one block of four column pairs
// stored into a 128-px mask-grid raster, each on the Go loop and the
// kernel.
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

func BenchmarkPassStore(b *testing.B) {
	const n = 128
	lines, dst := randVec(pairBlock*n, rand.New(rand.NewSource(1))), make([]float64, n*n)
	benchPaths(b, func() { storePairs(dst, lines, n, pairBlock) })
}

// benchPaths runs f as a go and, where the host has AVX, a vector
// sub-benchmark.
func benchPaths(b *testing.B, f func()) {
	defer func(v bool) { cpuid.PixelAVX = v }(cpuid.PixelAVX)
	for _, path := range paths() {
		b.Run(path, func(b *testing.B) {
			cpuid.PixelAVX = path == "vector"
			for b.Loop() {
				f()
			}
		})
	}
}
