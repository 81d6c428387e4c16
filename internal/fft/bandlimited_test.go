package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"strings"
	"testing"

	"mosaic/internal/grid"
	"mosaic/internal/obs"
)

func randBlock(k int, rng *rand.Rand) *grid.CField {
	blk := grid.NewC(2*k+1, 2*k+1)
	for i := range blk.Data {
		blk.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return blk
}

// ones returns the n x n all-ones weight: ForwardBandLimited of a field
// weighted by it is the field's plain band transform.
func ones(n int) *grid.Field {
	f := grid.New(n, n)
	for i := range f.Data {
		f.Data[i] = 1
	}
	return f
}

func maxAbsDiff(a, b *grid.CField) float64 {
	m := 0.0
	for i := range a.Data {
		if d := cmplx.Abs(a.Data[i] - b.Data[i]); d > m {
			m = d
		}
	}
	return m
}

// TestInverseBandLimitedMatchesReference pins the pruned inverse to the
// naive EmbedCenter + Inverse2D reference over several K values, with a
// dirty destination buffer.
func TestInverseBandLimitedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := []struct{ w, h, k int }{
		{16, 16, 1}, {32, 32, 3}, {64, 64, 9}, {128, 128, 14}, {64, 64, 31},
	}
	for _, tc := range cases {
		blk := randBlock(tc.k, rng)
		want := EmbedCenter(blk, tc.w, tc.h)
		Inverse2D(want)
		dst := grid.NewC(tc.w, tc.h)
		for i := range dst.Data {
			dst.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64()) // dirty
		}
		InverseBandLimited(blk, tc.w, tc.h, dst)
		if d := maxAbsDiff(dst, want); d > 1e-12 {
			t.Errorf("%dx%d k=%d: pruned inverse differs from reference by %g", tc.w, tc.h, tc.k, d)
		}
	}
}

// separable2D is the forward 2-D DFT of a field of any shape as 1-D
// transforms of every row, then of every column: the reference for the
// forward band transforms, which take rectangular fields where Forward2D
// takes squares only.
func separable2D(c *grid.CField) {
	for y := 0; y < c.H; y++ {
		Forward(c.Row(y))
	}
	col := make([]complex128, c.H)
	for x := 0; x < c.W; x++ {
		for y := range col {
			col[y] = c.At(x, y)
		}
		Forward(col)
		for y, v := range col {
			c.Set(x, y, v)
		}
	}
}

// TestForwardBandLimitedMatchesReference pins the pruned forward transform
// of a weighted field to the separable DFT of the product + ExtractCenter,
// and requires it to leave both operands as they were.
func TestForwardBandLimitedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	cases := []struct{ w, h, k int }{
		{16, 16, 2}, {64, 64, 9}, {128, 128, 14}, {32, 64, 5}, {64, 32, 7},
	}
	for _, tc := range cases {
		src := grid.NewC(tc.w, tc.h)
		w := grid.New(tc.w, tc.h)
		ref := grid.NewC(tc.w, tc.h)
		for i := range src.Data {
			src.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			w.Data[i] = rng.NormFloat64()
			ref.Data[i] = src.Data[i] * complex(w.Data[i], 0)
		}
		src0, w0 := src.Clone(), w.Clone()
		separable2D(ref)
		want := ExtractCenter(ref, tc.k)
		blk := grid.NewC(2*tc.k+1, 2*tc.k+1)
		ForwardBandLimited(src, w, tc.k, blk)
		if d := maxAbsDiff(blk, want); d > 1e-9 {
			t.Errorf("%dx%d k=%d: pruned forward differs from reference by %g", tc.w, tc.h, tc.k, d)
		}
		if !src.EqualC(src0, 0) || !w.Equal(w0, 0) {
			t.Errorf("%dx%d k=%d: pruned forward modified its operands", tc.w, tc.h, tc.k)
		}
	}
}

// TestForwardBandLimitedRealMatchesReference pins the real-input forward
// transform to the complex reference on random binary masks, square and
// rectangular.
func TestForwardBandLimitedRealMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	cases := []struct{ w, h, k int }{
		{16, 16, 2}, {64, 64, 9}, {128, 128, 14}, {32, 64, 5}, {64, 32, 7},
	}
	for _, tc := range cases {
		mask := grid.New(tc.w, tc.h)
		for i := range mask.Data {
			if rng.Float64() < 0.3 {
				mask.Data[i] = 1 // binary, like a real mask
			}
		}
		ref := grid.ToComplex(mask)
		separable2D(ref)
		want := ExtractCenter(ref, tc.k)
		blk := grid.NewC(2*tc.k+1, 2*tc.k+1)
		ForwardBandLimitedReal(mask, tc.k, blk)
		if d := maxAbsDiff(blk, want); d > 1e-9 {
			t.Errorf("%dx%d k=%d: real packed forward differs from reference by %g", tc.w, tc.h, tc.k, d)
		}
	}
}

// maxAbsC returns the largest modulus in c, the scale a relative tolerance
// is taken against.
func maxAbsC(c *grid.CField) float64 {
	m := 0.0
	for _, v := range c.Data {
		m = math.Max(m, cmplx.Abs(v))
	}
	return m
}

// everyBand calls fn for every grid side n in {2, 4, ..., 256} and every
// band half-width k the side can hold, 2k+1 <= n.
func everyBand(fn func(n, k int)) {
	for n := 2; n <= 256; n *= 2 {
		for k := 0; k <= (n-1)/2; k++ {
			fn(n, k)
		}
	}
}

// TestInverseBandLimitedRealMatchesReference: on random blocks — general
// ones, whose dense inverse has an imaginary part to drop, not only
// Hermitian ones — the real-output inverse equals the real part of
// EmbedCenter + Inverse2D to 1e-12 of the field's scale, for every (n, k),
// into a dirty destination.
func TestInverseBandLimitedRealMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	everyBand(func(n, k int) {
		blk := randBlock(k, rng)
		want := EmbedCenter(blk, n, n)
		Inverse2D(want)
		dst := grid.New(n, n).Fill(rng.NormFloat64()) // dirty
		InverseBandLimitedReal(blk, n, dst)
		worst := 0.0
		for i, v := range want.Data {
			worst = math.Max(worst, math.Abs(dst.Data[i]-real(v)))
		}
		if tol := 1e-12 * maxAbsC(want); worst > tol {
			t.Errorf("n=%d k=%d: real inverse differs from Re(reference) by %g, tolerance %g", n, k, worst, tol)
		}
	})
}

// TestForwardBandLimitedRealIsHermitian: for every (n, k) the real-input
// forward block equals Forward2D + ExtractCenter to 1e-12 of the spectrum's
// scale, and its two halves are each other's conjugate exactly — the
// inverse's symmetrisation of such a block is then exact too.
func TestForwardBandLimitedRealIsHermitian(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	everyBand(func(n, k int) {
		f := grid.New(n, n)
		for i := range f.Data {
			f.Data[i] = rng.NormFloat64()
		}
		ref := grid.ToComplex(f)
		Forward2D(ref)
		want := ExtractCenter(ref, k)
		blk := randBlock(k, rng) // dirty
		ForwardBandLimitedReal(f, k, blk)
		if d, tol := maxAbsDiff(blk, want), 1e-12*maxAbsC(want); d > tol {
			t.Errorf("n=%d k=%d: real forward differs from reference by %g, tolerance %g", n, k, d, tol)
		}
		for fy := -k; fy <= k; fy++ {
			for fx := -k; fx <= k; fx++ {
				if a, b := blk.At(k+fx, k+fy), blk.At(k-fx, k-fy); a != cmplx.Conj(b) {
					t.Fatalf("n=%d k=%d: blk(%d,%d) = %v but blk(%d,%d) = %v", n, k, fx, fy, a, -fx, -fy, b)
				}
			}
		}
	})
}

// TestBandLimitedRoundTrip: forward band extraction followed by the pruned
// inverse must reproduce a band-limited field exactly.
func TestBandLimitedRoundTrip(t *testing.T) {
	const n, k = 64, 6
	rng := rand.New(rand.NewSource(45))
	blk := randBlock(k, rng)
	field := grid.NewC(n, n)
	InverseBandLimited(blk, n, n, field)
	back := grid.NewC(2*k+1, 2*k+1)
	ForwardBandLimited(field, ones(n), k, back)
	if d := maxAbsDiff(back, blk); d > 1e-12 {
		t.Fatalf("band round trip error %g", d)
	}
}

// TestInverseBandLimitedPanics: every shape the transforms refuse panics
// with a message that names the package, never an index out of range.
func TestInverseBandLimitedPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"even block":  func() { InverseBandLimited(grid.NewC(4, 4), 16, 16, grid.NewC(16, 16)) },
		"rect block":  func() { InverseBandLimited(grid.NewC(3, 5), 16, 16, grid.NewC(16, 16)) },
		"block>grid":  func() { InverseBandLimited(grid.NewC(9, 9), 8, 8, grid.NewC(8, 8)) },
		"wrong dst":   func() { InverseBandLimited(grid.NewC(3, 3), 16, 16, grid.NewC(8, 8)) },
		"rect grid":   func() { InverseBandLimited(grid.NewC(3, 3), 32, 16, grid.NewC(32, 16)) },
		"fwd mistfit": func() { ForwardBandLimited(grid.NewC(16, 16), grid.New(16, 16), 3, grid.NewC(5, 5)) },
		"fwd weight":  func() { ForwardBandLimited(grid.NewC(16, 16), grid.New(8, 16), 2, grid.NewC(5, 5)) },

		"rect Forward2D": func() { Forward2D(grid.NewC(8, 16)) },
		"rect Inverse2D": func() { Inverse2D(grid.NewC(32, 16)) },

		"real even block":  func() { InverseBandLimitedReal(grid.NewC(4, 4), 16, grid.New(16, 16)) },
		"real rect block":  func() { InverseBandLimitedReal(grid.NewC(3, 5), 16, grid.New(16, 16)) },
		"real block>grid":  func() { InverseBandLimitedReal(grid.NewC(9, 9), 8, grid.New(8, 8)) },
		"real wrong dst":   func() { InverseBandLimitedReal(grid.NewC(3, 3), 16, grid.New(8, 8)) },
		"real fwd misfit":  func() { ForwardBandLimitedReal(grid.New(16, 16), 1, grid.NewC(5, 5)) },
		"real fwd too big": func() { ForwardBandLimitedReal(grid.New(8, 8), 4, grid.NewC(9, 9)) },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "fft: ") {
					t.Errorf("%s: want a panic naming fft, got %q", name, msg)
				}
			}()
			fn()
		}()
	}
}

// TestPrunedCountersVisible: the pruned-transform counters must show up in
// a metrics dump after the pruned paths run.
func TestPrunedCountersVisible(t *testing.T) {
	blk := grid.NewC(3, 3)
	blk.Set(1, 1, 1)
	dst := grid.NewC(16, 16)
	pts0 := prunedPoints.Value()
	InverseBandLimited(blk, 16, 16, dst)
	ForwardBandLimited(dst, ones(16), 1, blk)
	ForwardBandLimitedReal(grid.New(8, 8), 1, blk)
	InverseBandLimitedReal(blk, 32, grid.New(32, 32))
	txt := obs.MetricsText()
	for _, name := range []string{"fft_pruned_inverse_total", "fft_pruned_forward_total", "fft_pruned_points_total"} {
		if !strings.Contains(txt, name) {
			t.Errorf("metrics dump missing %s", name)
		}
	}
	if prunedInverse.Value() == 0 || prunedForward.Value() == 0 {
		t.Error("pruned counters did not advance")
	}
	// One w*h per pruned call, whatever its direction or size.
	if got, want := prunedPoints.Value()-pts0, int64(16*16+16*16+8*8+32*32); got != want {
		t.Errorf("pruned points advanced by %d, want %d", got, want)
	}
}

// metricNames returns the set of metric names in a metrics dump.
func metricNames() map[string]bool {
	names := make(map[string]bool)
	for _, line := range strings.Split(obs.MetricsText(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		names[line[:strings.IndexAny(line, "{ ")]] = true
	}
	return names
}

// TestTransformSizesMintNoMetricNames: 2-D transforms at sizes this process
// has never seen are counted (one call, W*H points each) under the names
// that already exist — a metric name is never made from the input.
func TestTransformSizesMintNoMetricNames(t *testing.T) {
	Forward2D(grid.NewC(4, 4)) // the counters exist from here on
	before := metricNames()
	calls0, pts0 := tf2dTotal.Value(), tf2dPoints.Value()
	Forward2D(grid.NewC(512, 512))
	Inverse2D(grid.NewC(1024, 1024))
	if got, want := tf2dTotal.Value()-calls0, int64(2); got != want {
		t.Errorf("fft_2d_transforms_total advanced by %d, want %d", got, want)
	}
	if got, want := tf2dPoints.Value()-pts0, int64(512*512+1024*1024); got != want {
		t.Errorf("fft_2d_points_total advanced by %d, want %d", got, want)
	}
	after := metricNames()
	for name := range after {
		if !before[name] {
			t.Errorf("transform size minted metric name %s", name)
		}
	}
	if !after["fft_2d_points_total"] || !after["fft_2d_transforms_total"] {
		t.Errorf("metrics dump lacks the 2-D transform counters: %v", after)
	}
}
