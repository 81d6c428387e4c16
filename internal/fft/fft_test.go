package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"

	"mosaic/internal/grid"
	"mosaic/internal/par"
)

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 1024} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) = false, want true", n)
		}
	}
	for _, n := range []int{0, -4, 3, 6, 1000} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) = true, want false", n)
		}
	}
}

func randVec(n int, rng *rand.Rand) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return v
}

func TestForwardDelta(t *testing.T) {
	// FFT of a unit impulse at 0 is all ones.
	x := make([]complex128, 16)
	x[0] = 1
	Forward(x)
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("bin %d = %v, want 1", i, v)
		}
	}
}

func TestForwardKnownSinusoid(t *testing.T) {
	// x[n] = exp(2*pi*i*k*n/N) transforms to N * delta[k].
	const n, k = 32, 5
	x := make([]complex128, n)
	for i := range x {
		ph := 2 * math.Pi * float64(k) * float64(i) / float64(n)
		x[i] = cmplx.Exp(complex(0, ph))
	}
	Forward(x)
	for i, v := range x {
		want := complex(0, 0)
		if i == k {
			want = complex(n, 0)
		}
		if cmplx.Abs(v-want) > 1e-9 {
			t.Fatalf("bin %d = %v, want %v", i, v, want)
		}
	}
}

func TestRoundTrip1D(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 8, 64, 512} {
		x := randVec(n, rng)
		orig := append([]complex128(nil), x...)
		Forward(x)
		Inverse(x)
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
				t.Fatalf("n=%d: round trip mismatch at %d: %v vs %v", n, i, x[i], orig[i])
			}
		}
	}
}

func TestParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := randVec(256, rng)
	var eSpace float64
	for _, v := range x {
		eSpace += real(v)*real(v) + imag(v)*imag(v)
	}
	Forward(x)
	var eFreq float64
	for _, v := range x {
		eFreq += real(v)*real(v) + imag(v)*imag(v)
	}
	eFreq /= 256
	if math.Abs(eSpace-eFreq) > 1e-8*eSpace {
		t.Fatalf("Parseval violated: %g vs %g", eSpace, eFreq)
	}
}

func TestLinearityProperty(t *testing.T) {
	// FFT(a*x + y) == a*FFT(x) + FFT(y), checked with testing/quick over
	// random inputs of fixed size.
	f := func(seed int64, areRe, areIm float64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 64
		a := complex(areRe, areIm)
		x := randVec(n, rng)
		y := randVec(n, rng)
		lhs := make([]complex128, n)
		for i := range lhs {
			lhs[i] = a*x[i] + y[i]
		}
		Forward(lhs)
		Forward(x)
		Forward(y)
		for i := range lhs {
			if cmplx.Abs(lhs[i]-(a*x[i]+y[i])) > 1e-7*(1+cmplx.Abs(lhs[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestNonPow2Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two length")
		}
	}()
	Forward(make([]complex128, 12))
}

func TestRoundTrip2D(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := grid.NewC(32, 32)
	for i := range c.Data {
		c.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	orig := c.Clone()
	Forward2D(c)
	Inverse2D(c)
	if !c.EqualC(orig, 1e-9) {
		t.Fatal("2D round trip mismatch")
	}
}

func TestForward2DSeparability(t *testing.T) {
	// A rank-1 input f(x,y) = g(x)h(y) transforms to G(fx)H(fy).
	const n = 16
	rng := rand.New(rand.NewSource(4))
	g := randVec(n, rng)
	h := randVec(n, rng)
	c := grid.NewC(n, n)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			c.Set(x, y, g[x]*h[y])
		}
	}
	Forward2D(c)
	gf := append([]complex128(nil), g...)
	hf := append([]complex128(nil), h...)
	Forward(gf)
	Forward(hf)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			want := gf[x] * hf[y]
			if cmplx.Abs(c.At(x, y)-want) > 1e-8*(1+cmplx.Abs(want)) {
				t.Fatalf("(%d,%d): %v want %v", x, y, c.At(x, y), want)
			}
		}
	}
}

func TestExtractEmbedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	spec := grid.NewC(32, 32)
	// Populate only the central +/-3 block (unshifted indexing).
	for dy := -3; dy <= 3; dy++ {
		for dx := -3; dx <= 3; dx++ {
			spec.Set((dx+32)%32, (dy+32)%32, complex(rng.NormFloat64(), rng.NormFloat64()))
		}
	}
	blk := ExtractCenter(spec, 3)
	back := EmbedCenter(blk, 32, 32)
	if !back.EqualC(spec, 0) {
		t.Fatal("extract/embed round trip mismatch")
	}
}

func TestConvolutionTheorem(t *testing.T) {
	// Circular convolution via FFT matches the direct O(n^2) sum.
	const n = 16
	rng := rand.New(rand.NewSource(7))
	a := randVec(n, rng)
	b := randVec(n, rng)
	direct := make([]complex128, n)
	for i := 0; i < n; i++ {
		var s complex128
		for j := 0; j < n; j++ {
			s += a[j] * b[(i-j+n)%n]
		}
		direct[i] = s
	}
	af := append([]complex128(nil), a...)
	bf := append([]complex128(nil), b...)
	Forward(af)
	Forward(bf)
	for i := range af {
		af[i] *= bf[i]
	}
	Inverse(af)
	for i := range af {
		if cmplx.Abs(af[i]-direct[i]) > 1e-8*(1+cmplx.Abs(direct[i])) {
			t.Fatalf("bin %d: %v want %v", i, af[i], direct[i])
		}
	}
}

// TestChunkedCoversAllDisjoint: from parallelElems up the passes cover
// [0, n) exactly once with no empty chunk; below it there is exactly one
// pass(0, n), a plain call.
func TestChunkedCoversAllDisjoint(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		seen := make([]atomic.Int32, n)
		chunked(parallelElems, n, func(lo, hi int) {
			if lo >= hi {
				t.Errorf("n=%d: empty chunk [%d,%d)", n, lo, hi)
			}
			for i := lo; i < hi; i++ {
				seen[i].Add(1)
			}
		})
		for i := range seen {
			if got := seen[i].Load(); got != 1 {
				t.Fatalf("n=%d: index %d covered %d times", n, i, got)
			}
		}
		var calls [][2]int
		chunked(parallelElems-1, n, func(lo, hi int) { calls = append(calls, [2]int{lo, hi}) })
		if len(calls) != 1 || calls[0] != [2]int{0, n} {
			t.Fatalf("n=%d below the threshold: passes %v, want one [0 %d]", n, calls, n)
		}
	}
}

func TestChunkedPanicPropagates(t *testing.T) {
	defer func() {
		if _, ok := recover().(*par.PanicError); !ok {
			t.Fatal("want *par.PanicError from a panicking pass")
		}
	}()
	chunked(parallelElems, 10, func(lo, hi int) { panic("pass boom") })
	t.Fatal("chunked returned despite a panicking pass")
}
