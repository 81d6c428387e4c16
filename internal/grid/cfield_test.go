package grid

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

// checkAccumAbs2 holds AccumAbs2 of c into dst to its Go loop, bit for bit
// (NaN by NaN-ness).
func checkAccumAbs2(t *testing.T, c *CField, dst *Field, w float64) {
	t.Helper()
	defer func(v bool) { cpuid.PixelAVX = v }(cpuid.PixelAVX)
	want := dst.Clone()
	cpuid.PixelAVX = false
	c.AccumAbs2(want, w)
	got := dst.Clone()
	cpuid.PixelAVX = cpuid.AVX
	c.AccumAbs2(got, w)
	for i, g := range got.Data {
		if wv := want.Data[i]; math.Float64bits(g) != math.Float64bits(wv) && !(math.IsNaN(g) && math.IsNaN(wv)) {
			t.Fatalf("n=%d: vector [%d] = %v, Go %v (c=%v, dst=%v, w=%v)", len(c.Data), i, g, wv, c.Data[i], dst.Data[i], w)
		}
	}
}

// TestAccumAbs2KernelMatchesGo: on every length 0-67, with fields and sums
// salted with edgeValues, the kernel adds the Go loop's bits.
func TestAccumAbs2KernelMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	val := func() float64 {
		if rng.Intn(8) == 0 {
			return edgeValues[rng.Intn(len(edgeValues))]
		}
		return rng.NormFloat64()
	}
	for n := range 68 {
		c, dst := NewC(n, 1), New(n, 1)
		for i := range c.Data {
			c.Data[i], dst.Data[i] = complex(val(), val()), val()
		}
		checkAccumAbs2(t, c, dst, val())
	}
}

// FuzzAccumAbs2: for arbitrary bits in the field, the sum and the weight,
// and lengths 0-67, the kernel adds the Go loop's bits.
func FuzzAccumAbs2(f *testing.F) {
	bits := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(uint8(67), bits(1, 2, 3, 0.25))
	f.Add(uint8(9), bits(edgeValues...))
	f.Add(uint8(5), bits(math.NaN(), math.Inf(1), 1e308, math.Copysign(0, -1), 5e-324))
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
		c, dst := NewC(l, 1), New(l, 1)
		for i := range c.Data {
			c.Data[i] = complex(next(), next())
			dst.Data[i] = next()
		}
		checkAccumAbs2(t, c, dst, next())
	})
}

// BenchmarkPassAccumAbs2 is one kernel's |A_k|² term on the benchmark's
// 64-px imaging grid, on the Go loop and the kernel.
func BenchmarkPassAccumAbs2(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c, dst := NewC(64, 64), New(64, 64)
	for i := range c.Data {
		c.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	defer func(v bool) { cpuid.PixelAVX = v }(cpuid.PixelAVX)
	for _, path := range []string{"go", "vector"} {
		if path == "vector" && !cpuid.AVX {
			continue
		}
		b.Run(path, func(b *testing.B) {
			cpuid.PixelAVX = path == "vector"
			for b.Loop() {
				c.AccumAbs2(dst, 0.5)
			}
		})
	}
}
