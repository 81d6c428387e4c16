package fft

import (
	"fmt"
	"math/rand"
	"testing"

	"mosaic/internal/grid"
)

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
// production bench geometry (128 grid, K=14 → 29×29 block), and run the
// pruned transforms from the 64-px imaging grid to the paper's 512-px mask
// grid.

const (
	convN = 128
	convK = 14
)

// convSizes are the grid sides of the pruned rows, each with the band
// half-width the benchmark's probes give it at 8 nm pixels (K = 14 on the
// imaging grids, 28 and 55 on the larger ones).
var convSizes = []struct{ n, k int }{{64, 14}, {128, 14}, {256, 28}, {512, 55}}

// convRows runs f as one sub-benchmark per convSizes entry.
func convRows(b *testing.B, f func(b *testing.B, n, k int)) {
	for _, s := range convSizes {
		b.Run(fmt.Sprintf("%dpx", s.n), func(b *testing.B) {
			b.ReportAllocs()
			f(b, s.n, s.k)
		})
	}
}

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

// BenchmarkConvolveInversePruned is the complex inverse that images one
// SOCS kernel.
func BenchmarkConvolveInversePruned(b *testing.B) {
	convRows(b, func(b *testing.B, n, k int) {
		blk, dst := randBlock(k, rand.New(rand.NewSource(1))), grid.NewC(n, n)
		for b.Loop() {
			InverseBandLimited(blk, n, n, dst)
		}
	})
}

// BenchmarkConvolveForwardPruned is the weighted complex forward that
// back-propagates one kernel's adjoint term.
func BenchmarkConvolveForwardPruned(b *testing.B) {
	convRows(b, func(b *testing.B, n, k int) {
		rng := rand.New(rand.NewSource(1))
		src, w, blk := grid.NewC(n, n), grid.New(n, n), grid.NewC(2*k+1, 2*k+1)
		for i := range src.Data {
			src.Data[i], w.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64()), rng.NormFloat64()
		}
		for b.Loop() {
			ForwardBandLimited(src, w, k, blk)
		}
	})
}

// BenchmarkConvolveInverseRealPruned is the real-output inverse at the block
// sim.ImagingGrid.resample hands it (half-width 2K, 4K+1 = 57 entries a
// side).
func BenchmarkConvolveInverseRealPruned(b *testing.B) {
	convRows(b, func(b *testing.B, n, _ int) {
		blk, dst := randBlock(2*convK, rand.New(rand.NewSource(1))), grid.New(n, n)
		for b.Loop() {
			InverseBandLimitedReal(blk, n, dst)
		}
	})
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

// BenchmarkConvolveForwardPrunedReal is the real-input forward of a binary
// mask at half-width K.
func BenchmarkConvolveForwardPrunedReal(b *testing.B) {
	convRows(b, func(b *testing.B, n, _ int) {
		mask := grid.New(n, n)
		for i := range mask.Data {
			if i%3 == 0 {
				mask.Data[i] = 1
			}
		}
		blk := grid.NewC(2*convK+1, 2*convK+1)
		for b.Loop() {
			ForwardBandLimitedReal(mask, convK, blk)
		}
	})
}
