package optics

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mosaic/internal/linalg"
)

// tccOp is the dense reference operator: the full Hopkins matrix of
// BuildTCC applied with CMatrix.MatVec one vector at a time, every zero
// multiplied and added.
type tccOp struct{ m *linalg.CMatrix }

func (t tccOp) Dim() int { return t.m.R }

func (t tccOp) Apply(xs, ys [][]complex128) {
	for i, x := range xs {
		copy(ys[i], t.m.MatVec(x))
	}
}

// raceEnabled is set by race_test.go under the race detector, which slows
// the 256 px eigensolve about tenfold.
var raceEnabled bool

// kernelSum is the SHA-256 of a kernel set's numbers as the solver reads
// them: every weight, then every kernel's frequency response, as IEEE-754
// bit patterns.
func kernelSum(ks *KernelSet) string {
	h := sha256.New()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, w := range ks.Weights {
		put(w)
	}
	for _, f := range ks.Freqs {
		for _, v := range f.Data {
			put(real(v))
			put(imag(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestKernelBitsPinned holds BuildKernels to the bits of the dense builder
// (BuildTCC + tccOp + HermEigTopK) it replaced: the hashes below were
// recorded at commit 2329449, before the row-compressed operator existed.
// The tail of the set (kernels 20–23, TestKernelResiduals) is decided by
// rounding, so a builder that sums in another order passes every
// tolerance test and still moves the golden masks; this one cannot. The
// 256 px set is the 2048 nm window of a default TileNM run (K = 28), where
// the block apply saves the most operator reads; its hash was recorded at
// commit 7adcb8e with the single-vector operator.
func TestKernelBitsPinned(t *testing.T) {
	for _, tc := range []struct {
		grid    int
		defocus float64
		want    string
	}{
		{64, 0, "0c437720066522e68dfb62fc9f4284f868d8b106ac7b77d64e53bbe341b5cf07"},
		{64, 25, "3fc3c29fa090e3780233ab6166310ae62690c1783df538b979ce1f3006a92084"},
		{64, -25, "82e1a833f7f43754160ca0e65ac333cb8a827aeb6a2736a19ae7893275f09ead"},
		{128, 0, "6c7b202f7922efd50a7532133a3b2ff6d110320920e01edbad606b6e587eda8b"},
		{128, 25, "5dba1496c7b3b144e92cd964bdb800381b74238d6fb1aff33a90837f7c28395d"},
		{128, -25, "e1911130b82ff17ba8e364ec7134696bc25794d62e325a5ca95da60a7a53fb4e"},
		{256, 0, "b274d45298126e801a64de0c4da315652db4d197fdbe4f78c1dc13434ba0fd9c"},
	} {
		t.Run(fmt.Sprintf("%dpx/defocus%g", tc.grid, tc.defocus), func(t *testing.T) {
			if tc.grid > 64 && testing.Short() {
				t.Skipf("%d px TCC eigensolve skipped in -short mode", tc.grid)
			}
			if tc.grid > 128 && raceEnabled {
				t.Skip("256 px TCC eigensolve skipped under the race detector")
			}
			c := Default()
			c.GridSize, c.PixelNM = tc.grid, 8
			ks, err := BuildKernels(c, tc.defocus)
			if err != nil {
				t.Fatal(err)
			}
			if got := kernelSum(ks); got != tc.want {
				t.Errorf("kernel set hashes to %s, want %s", got, tc.want)
			}
		})
	}
}

// TestSparseApplyMatchesDense checks the argument the pinned hashes rest
// on: the row-compressed operator returns the dense product bit for bit,
// at every block width and on vectors with zero, negative-zero and
// subnormal components too, because the entries it skips are exact zeros
// added to a sum that starts at +0 and each vector of a block has its own
// accumulator.
func TestSparseApplyMatchesDense(t *testing.T) {
	for _, grid := range []int{32, 64, 128} {
		for _, sigmaIn := range []float64{0.6, 0} {
			for _, defocus := range []float64{25, -25} {
				t.Run(fmt.Sprintf("%dpx/sigmaIn%g/defocus%g", grid, sigmaIn, defocus), func(t *testing.T) {
					if grid > 64 && testing.Short() {
						t.Skip("128 px dense TCC skipped in -short mode")
					}
					c := Default()
					c.GridSize, c.PixelNM, c.SigmaIn = grid, 8, sigmaIn
					dense := tccOp{BuildTCC(c, defocus)}
					sparse := newSparseTCC(c, defocus)
					if sparse.Dim() != dense.Dim() {
						t.Fatalf("Dim = %d, want %d", sparse.Dim(), dense.Dim())
					}
					// What a row leaves out is an exact zero of the dense
					// matrix; what it keeps has the dense entry's bits.
					sameBits := func(a, b complex128) bool {
						return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
							math.Float64bits(imag(a)) == math.Float64bits(imag(b))
					}
					for i := 0; i < sparse.Dim(); i++ {
						kept := sparse.rowPtr[i]
						for j, v := range dense.m.Row(i) {
							switch {
							case kept < sparse.rowPtr[i+1] && int(sparse.cols[kept]) == j:
								if !sameBits(sparse.vals[kept], v) {
									t.Fatalf("T[%d][%d]: sparse %v, dense %v", i, j, sparse.vals[kept], v)
								}
								kept++
							case v != 0:
								t.Fatalf("T[%d][%d] = %v is not stored", i, j, v)
							}
						}
						if kept != sparse.rowPtr[i+1] {
							t.Fatalf("row %d: columns not ascending or out of range", i)
						}
					}
					// Block widths 1-9 meet every remainder of four.
					rng := rand.New(rand.NewSource(int64(grid)))
					negZero := math.Copysign(0, -1)
					for width := 1; width <= 9; width++ {
						xs, ys, want := make([][]complex128, width), make([][]complex128, width), make([][]complex128, width)
						for v := range xs {
							x := make([]complex128, dense.Dim())
							for i := range x {
								switch rng.Intn(9) {
								case 0:
									x[i] = 0
								case 1:
									x[i] = complex(negZero, negZero)
								case 2:
									x[i] = complex(rng.NormFloat64(), negZero)
								case 3:
									x[i] = complex(rng.NormFloat64()*1e-310, rng.NormFloat64())
								default:
									x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
								}
							}
							xs[v], ys[v], want[v] = x, make([]complex128, dense.Dim()), make([]complex128, dense.Dim())
						}
						sparse.Apply(xs, ys)
						dense.Apply(xs, want)
						for v := range want {
							for i := range want[v] {
								if !sameBits(ys[v][i], want[v][i]) {
									t.Fatalf("width %d, vector %d, row %d: sparse %v, dense %v", width, v, i, ys[v][i], want[v][i])
								}
							}
						}
					}
				})
			}
		}
	}
}

// BenchmarkBuildKernels is one cold kernel build per focus plane of the
// default process window (nominal and 25 nm defocus) at the three window
// sizes the repo runs, 8 nm/px. The 256 px row is the 2048 nm window of a
// default TileNM = 1024 run, which the repo benchmark cannot afford
// (benchmark/README.md finding 1); here it is a recorded number.
func BenchmarkBuildKernels(b *testing.B) {
	for _, grid := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("%dpx", grid), func(b *testing.B) {
			c := Default()
			c.GridSize, c.PixelNM = grid, 8
			for i := 0; i < b.N; i++ {
				for _, defocus := range []float64{0, 25} {
					if _, err := BuildKernels(c, defocus); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
