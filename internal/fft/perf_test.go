package fft

import (
	"fmt"
	"math/rand"
	"testing"

	"mosaic/internal/grid"
)

func BenchmarkFFT512Transpose(b *testing.B) {
	c := grid.NewC(512, 512)
	c.Data[5] = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		transform2D(c, false)
	}
}

// BenchmarkTransform1D is the 1-D kernel alone at the line lengths the
// solver runs: 64 (imaging grid), 128 (benchmark mask grid, whose real
// forward also runs 64), 512 (the paper's mask grid), 32 for the trend, on
// the Go loops and on the vector passes (go/n against vector/n is the
// kernel's speed-up). The copy that refreshes the line (forward transforms
// of one line overflow in a few hundred rounds) is inside the loop and a
// few percent of it.
func BenchmarkTransform1D(b *testing.B) {
	for _, path := range paths() {
		for _, n := range []int{32, 64, 128, 512} {
			b.Run(fmt.Sprintf("%s/%d", path, n), func(b *testing.B) {
				p := getPlan(n)
				src := randVec(n, rand.New(rand.NewSource(1)))
				x := make([]complex128, n)
				onPath(path, func() {
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						copy(x, src)
						transform(x, p, false)
					}
				})
			})
		}
	}
}

// The Convolve benchmarks compare the pruned band-limited convolution engine
// against the dense EmbedCenter+Inverse2D / Forward2D reference at the
// production bench geometry (128 grid, K=14 → 29×29 block).

const (
	convN = 128
	convK = 14
)

func convBlock() *grid.CField {
	blk := grid.NewC(2*convK+1, 2*convK+1)
	for i := range blk.Data {
		blk.Data[i] = complex(float64(i%13)-6, float64(i%7)-3)
	}
	return blk
}

func BenchmarkConvolveInverseReference(b *testing.B) {
	blk := convBlock()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		full := EmbedCenter(blk, convN, convN)
		Inverse2D(full)
	}
}

func BenchmarkConvolveInversePruned(b *testing.B) {
	blk := convBlock()
	dst := grid.NewC(convN, convN)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		InverseBandLimited(blk, convN, convN, dst)
	}
}

// BenchmarkConvolveInverseRealPruned is the real-output inverse at the block
// sim.ImagingGrid.resample hands it (half-width 2K, 4K+1 = 57 entries a
// side), on the benchmark's mask grid and on the paper's.
func BenchmarkConvolveInverseRealPruned(b *testing.B) {
	for _, n := range []int{128, 512} {
		b.Run(fmt.Sprintf("%dpx", n), func(b *testing.B) {
			blk := randBlock(2*convK, rand.New(rand.NewSource(1)))
			dst := grid.New(n, n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				InverseBandLimitedReal(blk, n, dst)
			}
		})
	}
}

func BenchmarkConvolveForwardReference(b *testing.B) {
	mask := grid.New(convN, convN)
	for i := range mask.Data {
		if i%3 == 0 {
			mask.Data[i] = 1
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Forward2D(grid.ToComplex(mask))
	}
}

func BenchmarkConvolveForwardPrunedReal(b *testing.B) {
	mask := grid.New(convN, convN)
	for i := range mask.Data {
		if i%3 == 0 {
			mask.Data[i] = 1
		}
	}
	blk := grid.NewC(2*convK+1, 2*convK+1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ForwardBandLimitedReal(mask, convK, blk)
	}
}
