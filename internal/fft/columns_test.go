package fft

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mosaic/internal/cpuid"
	"mosaic/internal/grid"
)

// checkColumns runs columns on a block of n rows of w entries, stride w+3,
// and holds every column to butterfliesGo on the column gathered into a
// line, bit for bit with NaN by NaN-ness; the three entries past each
// row's w must come back untouched.
func checkColumns(t *testing.T, n, w int, inverse bool, next func() float64) {
	t.Helper()
	p := getPlan(n)
	stride := w + 3
	x := make([]complex128, n*stride)
	for i := range x {
		x[i] = complex(next(), next())
	}
	want := append([]complex128(nil), x...)
	line := make([]complex128, n)
	for c := 0; c < w; c++ {
		for r := range line {
			line[r] = want[r*stride+c]
		}
		butterfliesGo(line, p, inverse)
		for r, v := range line {
			want[r*stride+c] = v
		}
	}
	columns(x, w, stride, p, inverse)
	for i, g := range x {
		if _, ok := sameBits(x[i:i+1], want[i:i+1]); i%stride >= w && !ok {
			t.Fatalf("n=%d w=%d inverse=%v: padding entry %d written", n, w, inverse, i)
		}
		if !sameNaN(real(g), real(want[i])) || !sameNaN(imag(g), imag(want[i])) {
			t.Fatalf("n=%d w=%d inverse=%v: row %d column %d = %v, line kernel %v",
				n, w, inverse, i/stride, i%stride, g, want[i])
		}
	}
}

// TestColumnsMatchLines: on the Go loops and on the vector passes, for
// every power-of-two n from 2 to 512 (odd and even level counts) and every
// width from 0 to 67 (odd widths run the Go tail), in both directions, the
// column pass gives each column the line kernel's bits, with values salted
// with edgeValues (signed zeros, subnormals, infinities, NaN).
func TestColumnsMatchLines(t *testing.T) {
	for _, path := range paths() {
		t.Run(path, func(t *testing.T) {
			onPath(path, func() {
				rng := rand.New(rand.NewSource(59))
				next := func() float64 {
					if rng.Intn(16) == 0 {
						return edgeValues[rng.Intn(len(edgeValues))]
					}
					return rng.NormFloat64()
				}
				for n := 2; n <= 512; n *= 2 {
					for w := 0; w <= 67; w++ {
						for _, inverse := range []bool{false, true} {
							checkColumns(t, n, w, inverse, next)
						}
					}
				}
			})
		})
	}
}

// FuzzColumns: for arbitrary bits in the block, a power-of-two n from 1 to
// 512 and a width from 0 to 67, the vector column pass gives each column
// the Go line kernel's bits.
func FuzzColumns(f *testing.F) {
	bits := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(uint8(6), uint8(8), false, bits(1, 2, 3, 0.25, 0.125))
	f.Add(uint8(5), uint8(7), true, bits(edgeValues...))
	f.Add(uint8(9), uint8(67), false, bits(math.NaN(), math.Inf(1), 1e308, math.Copysign(0, -1), 5e-324, -1))
	f.Fuzz(func(t *testing.T, logn, width uint8, inverse bool, data []byte) {
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
		onPath("vector", func() { checkColumns(t, 1<<(logn%10), int(width%68), inverse, next) })
	})
}

// sameBlock fails unless got and want hold the same bits.
func sameBlock(t *testing.T, what string, got, want []complex128) {
	t.Helper()
	if i, ok := sameBits(got, want); !ok {
		t.Fatalf("%s: [%d] = %v, line oracle %v", what, i, got[i], want[i])
	}
}

// realBits lifts a real field's data to complex128 for sameBits.
func realBits(f *grid.Field) []complex128 {
	c := make([]complex128, len(f.Data))
	for i, v := range f.Data {
		c[i] = complex(v, 0)
	}
	return c
}

// transformBands lists the half-widths TestTransformsMatchLines runs at
// side n: every one the side holds up to 128, and beyond it the edges and
// the benchmark's and the paper's bands.
func transformBands(n int) []int {
	var ks []int
	for k := 0; 2*k+1 <= n; k++ {
		if n <= 128 || k <= 1 || k == 14 || k == 28 || k == 55 || k == (n-1)/2 {
			ks = append(ks, k)
		}
	}
	return ks
}

// TestTransformsMatchLines pins the four band-limited transforms and the
// 2-D references to the line implementations they replaced
// (oracle_test.go), every bit, on both paths: at n in {1, 2, 16, 64, 128,
// 256, 512} — 256 and 512 run the passes split across cores — for the
// bands of transformBands, into dirty destinations, and on the
// rectangular forward cases of TestForward*MatchesReference.
func TestTransformsMatchLines(t *testing.T) {
	for _, path := range paths() {
		t.Run(path, func(t *testing.T) {
			defer func(v bool) { cpuid.PixelAVX = v }(cpuid.PixelAVX)
			cpuid.PixelAVX = path == "vector"
			onPath(path, func() { transformsMatchLines(t) })
		})
	}
}

func transformsMatchLines(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	dirtyC := func(w, h int) *grid.CField {
		c := grid.NewC(w, h)
		for i := range c.Data {
			c.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		return c
	}
	dirty := func(w, h int) *grid.Field {
		f := grid.New(w, h)
		for i := range f.Data {
			f.Data[i] = rng.NormFloat64()
		}
		return f
	}
	forward := func(w, h, k int) {
		what := fmt.Sprintf("%dx%d k=%d", w, h, k)
		src, wt, f := dirtyC(w, h), dirty(w, h), dirty(w, h)
		got, want := dirtyC(2*k+1, 2*k+1), grid.NewC(2*k+1, 2*k+1)
		ForwardBandLimited(src, wt, k, got)
		forwardBandLimitedLines(src, wt, k, want)
		sameBlock(t, "ForwardBandLimited "+what, got.Data, want.Data)
		ForwardBandLimitedReal(f, k, got)
		forwardBandLimitedRealLines(f, k, want)
		sameBlock(t, "ForwardBandLimitedReal "+what, got.Data, want.Data)
	}
	for _, n := range []int{1, 2, 16, 64, 128, 256, 512} {
		for _, k := range transformBands(n) {
			what := fmt.Sprintf("n=%d k=%d", n, k)
			blk := dirtyC(2*k+1, 2*k+1)
			got, want := dirtyC(n, n), grid.NewC(n, n)
			InverseBandLimited(blk, n, n, got)
			inverseBandLimitedLines(blk, n, want)
			sameBlock(t, "InverseBandLimited "+what, got.Data, want.Data)
			gotR, wantR := dirty(n, n), grid.New(n, n)
			InverseBandLimitedReal(blk, n, gotR)
			inverseBandLimitedRealLines(blk, n, wantR)
			sameBlock(t, "InverseBandLimitedReal "+what, realBits(gotR), realBits(wantR))
			forward(n, n, k)
		}
		for _, inverse := range []bool{false, true} {
			c := dirtyC(n, n)
			want := c.Clone()
			transform2D(c, inverse)
			transform2DLines(want, inverse)
			sameBlock(t, fmt.Sprintf("transform2D n=%d inverse=%v", n, inverse), c.Data, want.Data)
		}
	}
	for _, tc := range []struct{ w, h, k int }{{32, 64, 5}, {64, 32, 7}} {
		forward(tc.w, tc.h, tc.k)
	}
}

// BenchmarkPassColumns is the column pass of InverseBandLimited on the
// benchmark's 64-px imaging grid, a 64 x 64 block, on the Go loops and
// the vector passes. The block is zero and stays zero (repeated inverse
// passes of a random one would overflow); no subnormal arises, so the
// passes take the time they take on any finite block.
func BenchmarkPassColumns(b *testing.B) {
	const n = 64
	x, p := make([]complex128, n*n), getPlan(n)
	benchPaths(b, func() { columns(x, n, n, p, true) })
}
