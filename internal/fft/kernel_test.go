package fft

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mosaic/internal/cpuid"
)

// transformRadix2 is the textbook kernel transform replaced: bit-reversal
// swaps, then one pass over the line per level with the twiddle table
// walked at a stride. It is the bit oracle — transform must execute the
// same floating-point operations on the same operands, so every output
// word is equal, not close.
func transformRadix2(x []complex128, p *plan, inverse bool) {
	n := p.n
	for i, j := range p.rev {
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	if n >= 2 {
		// size=2: twiddle is exactly 1.
		for off := 0; off < n; off += 2 {
			u, v := x[off], x[off+1]
			x[off], x[off+1] = u+v, u-v
		}
	}
	if n >= 4 {
		// size=4: twiddles are exactly 1 and -i (forward) / +i (inverse).
		if inverse {
			for off := 0; off < n; off += 4 {
				u, v := x[off], x[off+2]
				x[off], x[off+2] = u+v, u-v
				u, v = x[off+1], x[off+3]
				v = complex(-imag(v), real(v)) // i * v
				x[off+1], x[off+3] = u+v, u-v
			}
		} else {
			for off := 0; off < n; off += 4 {
				u, v := x[off], x[off+2]
				x[off], x[off+2] = u+v, u-v
				u, v = x[off+1], x[off+3]
				v = complex(imag(v), -real(v)) // -i * v
				x[off+1], x[off+3] = u+v, u-v
			}
		}
	}
	w := p.wFwd
	if inverse {
		w = p.wInv
	}
	for size := 8; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for start := 0; start < n; start += size {
			// k=0 butterfly: twiddle exactly 1.
			u, v := x[start], x[start+half]
			x[start], x[start+half] = u+v, u-v
			k := step
			for off := start + 1; off < start+half; off++ {
				u := x[off]
				v := x[off+half] * w[k]
				x[off] = u + v
				x[off+half] = u - v
				k += step
			}
		}
	}
}

// sameBits reports the first index at which a and b differ in any bit of
// the real or imaginary part (so +0 != -0, and a NaN equals only itself).
func sameBits(a, b []complex128) (int, bool) {
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return i, false
		}
	}
	return 0, true
}

type oracleLine struct {
	name string
	x    []complex128
}

// oracleLines are the shapes the callers feed a length-n transform: a
// dense random line, the band-sparse line of every pruned pass (non-zero
// only in [0,k] and [n-k,n)), lines of signed zeros, where an addition
// and a subtraction — or a subtraction with its operands swapped — differ
// in the sign of the zero they produce and in nothing else, and a line
// with two infinities. The all -0 and the infinite lines are the ones a
// product by the exact-1 twiddle 1-0i changes (the imaginary part of
// (-0-0i)(1-0i) is (-0)(-0) + (-0)(1) = +0, and ∞·0 is NaN), so they pin
// every offset-0 butterfly unmultiplied.
func oracleLines(n int, rng *rand.Rand) []oracleLine {
	lines := []oracleLine{{"random", randVec(n, rng)}}
	for _, k := range []int{0, 1, 3, 14} {
		if 2*k+1 > n {
			continue
		}
		band := make([]complex128, n)
		for d := -k; d <= k; d++ {
			band[(d+n)%n] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		lines = append(lines, oracleLine{fmt.Sprintf("band%d", k), band})
	}
	signedZero := func() float64 { return math.Copysign(0, float64(rng.Intn(2))-0.5) }
	zeros := make([]complex128, n)
	mixed := make([]complex128, n)
	for i := range zeros {
		zeros[i] = complex(signedZero(), signedZero())
		mixed[i] = zeros[i]
		if rng.Intn(4) == 0 {
			mixed[i] = complex(rng.NormFloat64(), imag(zeros[i]))
		}
	}
	negZeros := make([]complex128, n)
	inf := randVec(n, rng)
	for i := range negZeros {
		negZeros[i] = complex(math.Copysign(0, -1), math.Copysign(0, -1))
	}
	inf[rng.Intn(n)] = complex(math.Inf(1), 0)
	inf[rng.Intn(n)] = complex(1, math.Inf(-1))
	return append(lines, oracleLine{"zeros", zeros}, oracleLine{"zeros+values", mixed},
		oracleLine{"-zeros", negZeros}, oracleLine{"inf", inf})
}

// paths lists the 1-D kernels butterflies can run on this host: the Go
// loops, and the AVX passes where the CPU has them.
func paths() []string {
	if cpuid.AVX {
		return []string{"go", "vector"}
	}
	return []string{"go"}
}

// onPath runs f with butterflies held to one of paths().
func onPath(path string, f func()) {
	defer func(v bool) { vector = v }(vector)
	vector = path == "vector"
	f()
}

// TestTransformBitsEqualRadix2 is the pin under every golden mask: the
// fused kernel and the pre-permuted entry reproduce the radix-2 loop bit
// for bit, at every length the plan cache can hold in a test's time, in
// both directions, on the Go loops and on the vector passes.
func TestTransformBitsEqualRadix2(t *testing.T) {
	for _, path := range paths() {
		t.Run(path, func(t *testing.T) { onPath(path, func() { bitsEqualRadix2(t) }) })
	}
}

func bitsEqualRadix2(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for n := 1; n <= 1024; n <<= 1 {
		p := getPlan(n)
		for _, l := range oracleLines(n, rng) {
			name, line := l.name, l.x
			for _, inverse := range []bool{false, true} {
				want := append([]complex128(nil), line...)
				transformRadix2(want, p, inverse)

				got := append([]complex128(nil), line...)
				transform(got, p, inverse)
				if i, ok := sameBits(got, want); !ok {
					t.Fatalf("n=%d %s inverse=%v: transform[%d] = %v, radix-2 %v", n, name, inverse, i, got[i], want[i])
				}

				// The pre-permuted entry on a line filled through p.rev is
				// permute-then-transform.
				pre := make([]complex128, n)
				for i, v := range line {
					pre[p.rev[i]] = v
				}
				butterflies(pre, p, inverse)
				if i, ok := sameBits(pre, want); !ok {
					t.Fatalf("n=%d %s inverse=%v: butterflies[%d] = %v, radix-2 %v", n, name, inverse, i, pre[i], want[i])
				}
			}
		}
	}
}

// TestTransformRefusesMismatchedLine: a line that is not the plan's length
// is a caller bug reported as one, not an index out of range in the middle
// of a pass or — shorter plan, longer line — a silently transformed prefix.
func TestTransformRefusesMismatchedLine(t *testing.T) {
	p := getPlan(8)
	entries := map[string]func([]complex128, *plan, bool){"transform": transform, "butterflies": butterflies}
	for name, entry := range entries {
		for _, n := range []int{0, 4, 16} {
			func() {
				defer func() {
					want := fmt.Sprintf("fft: line of %d for a plan of 8", n)
					if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
						t.Errorf("%s on a line of %d: recovered %v, want %q", name, n, r, want)
					}
				}()
				entry(make([]complex128, n), p, false)
			}()
		}
	}
}

// FuzzButterflies: on any line — a power-of-two length up to 1024 picked
// by the input, either direction, arbitrary float64 bit patterns (signed
// zeros, subnormals, infinities, NaNs) — the vector passes equal the Go
// loops bit for bit, a NaN matching any NaN.
func FuzzButterflies(f *testing.F) {
	bits := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	negZero := math.Copysign(0, -1)
	f.Add(uint8(3), false, bits(1, 2, 3, 4, 5, 6, 7, 8))
	f.Add(uint8(5), true, bits(0, negZero, negZero, 0, 5e-324, -5e-324, math.Inf(1), 0))
	f.Add(uint8(10), false, bits(math.Inf(-1), math.NaN(), 1e308, -1e308))
	f.Fuzz(func(t *testing.T, logn uint8, inverse bool, data []byte) {
		if !cpuid.AVX {
			t.Skip("no AVX: the Go loops are the only path")
		}
		n := 1 << (logn % 11)
		line := make([]complex128, n)
		for i := range line {
			var v [2]float64
			for k := range v {
				if off := (2*i + k) * 8; off+8 <= len(data) {
					v[k] = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
				}
			}
			line[i] = complex(v[0], v[1])
		}
		p := getPlan(n)
		want := append([]complex128(nil), line...)
		onPath("go", func() { butterflies(want, p, inverse) })
		got := append([]complex128(nil), line...)
		onPath("vector", func() { butterflies(got, p, inverse) })
		for i := range got {
			if !sameNaN(real(got[i]), real(want[i])) || !sameNaN(imag(got[i]), imag(want[i])) {
				t.Fatalf("n=%d inverse=%v: vector[%d] = %v, Go %v", n, inverse, i, got[i], want[i])
			}
		}
	})
}
