package sim

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

// checkFoldPair holds foldPair of f into dst to its Go loop, bit for bit
// (NaN by NaN-ness).
func checkFoldPair(t *testing.T, dst []float64, f []complex128, ma, mb float64) {
	t.Helper()
	defer func(v bool) { cpuid.PixelAVX = v }(cpuid.PixelAVX)
	want := append([]float64(nil), dst...)
	cpuid.PixelAVX = false
	foldPair(want, f, ma, mb)
	got := append([]float64(nil), dst...)
	cpuid.PixelAVX = cpuid.AVX
	foldPair(got, f, ma, mb)
	for i, g := range got {
		if wv := want[i]; math.Float64bits(g) != math.Float64bits(wv) && !(math.IsNaN(g) && math.IsNaN(wv)) {
			t.Fatalf("n=%d: vector [%d] = %v, Go %v (f=%v, dst=%v, mu=%v, %v)", len(f), i, g, wv, f[i], dst[i], ma, mb)
		}
	}
}

// TestFoldPairKernelMatchesGo: on every length 0-67, with fields and sums
// salted with edgeValues, the paired fold's kernel adds the Go loop's bits.
func TestFoldPairKernelMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	val := func() float64 {
		if rng.Intn(8) == 0 {
			return edgeValues[rng.Intn(len(edgeValues))]
		}
		return rng.NormFloat64()
	}
	for n := range 68 {
		dst, f := make([]float64, n), make([]complex128, n)
		for i := range f {
			f[i], dst[i] = complex(val(), val()), val()
		}
		checkFoldPair(t, dst, f, val(), val())
	}
}

// FuzzFold: for arbitrary bits in the field, the sum and both weights, and
// lengths 0-67, the paired fold's kernel adds the Go loop's bits.
func FuzzFold(f *testing.F) {
	bits := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(uint8(67), bits(1, 2, 3, 0.25, 0.125))
	f.Add(uint8(9), bits(edgeValues...))
	f.Add(uint8(5), bits(math.NaN(), math.Inf(1), 1e308, math.Copysign(0, -1), 5e-324, -1))
	f.Fuzz(func(t *testing.T, n uint8, data []byte) {
		if !cpuid.AVX {
			t.Skip("no AVX: the Go loop is the only path")
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
		l := int(n % 68)
		dst, fl := make([]float64, l), make([]complex128, l)
		for i := range fl {
			fl[i] = complex(next(), next())
			dst[i] = next()
		}
		checkFoldPair(t, dst, fl, next(), next())
	})
}

// BenchmarkPassFold is one pair's term of the best-focus fold on the
// benchmark's 64-px imaging grid, on the Go loop and the kernel.
func BenchmarkPassFold(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	dst, f := make([]float64, 64*64), make([]complex128, 64*64)
	for i := range f {
		f[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	defer func(v bool) { cpuid.PixelAVX = v }(cpuid.PixelAVX)
	for _, path := range []string{"go", "vector"} {
		if path == "vector" && !cpuid.AVX {
			continue
		}
		b.Run(path, func(b *testing.B) {
			cpuid.PixelAVX = path == "vector"
			for b.Loop() {
				foldPair(dst, f, 0.5, 0.25)
			}
		})
	}
}
