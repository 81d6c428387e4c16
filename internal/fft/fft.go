// Package fft implements the fast Fourier transforms used by the optical
// simulator: a radix-2 complex FFT, 2-D transforms over grid.CField, and
// band-limited embedding/extraction of low-frequency blocks (the imaging
// system is heavily band-limited, so optical kernels live on a small
// central frequency patch of the full mask spectrum).
//
// Every transform in the package ends in one 1-D kernel, butterflies: the
// radix-2 decimation-in-time FFT with its levels executed two to a pass
// over twiddles the plan stores in the order the passes read them. The
// fusion reorders independent butterflies and nothing else, so the output
// is bit-equal to the one-level-a-pass loop (kept as the test oracle), and
// the passes that fill a line themselves write it in bit-reversed order
// and skip the permutation.
//
// The band-limit is also exploited computationally: InverseBandLimited and
// ForwardBandLimited in bandlimited.go prune the transform passes that only
// touch zero (or discarded) frequencies, roughly halving the FFT work per
// convolution; ForwardBandLimitedReal and InverseBandLimitedReal in real.go
// halve it again for a real field through the Hermitian symmetry of its
// spectrum; and large transforms parallelize their row/column passes across
// cores.
//
// All transform lengths must be powers of two; NextPow2 rounds sizes up.
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"

	"mosaic/internal/cpuid"
	"mosaic/internal/grid"
	"mosaic/internal/obs"
	"mosaic/internal/par"
)

// NextPow2 returns the smallest power of two >= n (and at least 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// plan caches what a transform of one length reads: the bit-reversal
// permutation, the twiddle table, and the same twiddles laid out in the
// order the fused passes of butterflies consume them.
type plan struct {
	n    int
	rev  []int
	wFwd []complex128 // forward twiddles, w[k] = exp(-2*pi*i*k/n), k < n/2
	wInv []complex128 // inverse twiddles
	// Per two-level pass (quarter length h = 4, 16, 64, ...), h triples
	// laid end to end: entry j holds the first level's twiddle for offset
	// j and the second level's for offsets j and j+h. The values are
	// copies of wFwd / wInv entries, never recomputed.
	twFwd, twInv [][3]complex128
	// The same twiddles split and lane-duplicated for the AVX passes
	// (vecTwiddles), built only where they run.
	vecFwd, vecInv []float64
}

// The plan cache is read on every transform and written a handful of times
// per process, so reads go through a lock-free sync.Map; the mutex only
// serializes plan construction.
var (
	plans        sync.Map // int -> *plan
	plansBuildMu sync.Mutex
)

func getPlan(n int) *plan {
	if p, ok := plans.Load(n); ok {
		return p.(*plan)
	}
	return buildPlan(n)
}

func buildPlan(n int) *plan {
	plansBuildMu.Lock()
	defer plansBuildMu.Unlock()
	if p, ok := plans.Load(n); ok {
		return p.(*plan)
	}
	if !IsPow2(n) {
		panic(fmt.Sprintf("fft: length %d is not a power of two", n))
	}
	p := &plan{n: n, rev: make([]int, n)}
	logn := bits.TrailingZeros(uint(n))
	for i := 0; i < n; i++ {
		p.rev[i] = int(bits.Reverse(uint(i)) >> (bits.UintSize - logn))
	}
	half := n / 2
	p.wFwd = make([]complex128, half)
	p.wInv = make([]complex128, half)
	for k := 0; k < half; k++ {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		p.wFwd[k] = complex(c, s)
		p.wInv[k] = complex(c, -s)
	}
	p.twFwd = passTwiddles(p.wFwd, n)
	p.twInv = passTwiddles(p.wInv, n)
	if cpuid.AVX {
		p.vecFwd = vecTwiddles(p.twFwd, p.wFwd, n)
		p.vecInv = vecTwiddles(p.twInv, p.wInv, n)
	}
	plans.Store(n, p)
	return p
}

// passTwiddles lays the table w of a length-n plan out pass by pass: the
// pass of quarter length h runs the levels of size 2h (table stride n/2h)
// and 4h (stride n/4h).
func passTwiddles(w []complex128, n int) [][3]complex128 {
	var tw [][3]complex128
	for h := 4; 4*h <= n; h *= 4 {
		s1, s2 := n/(2*h), n/(4*h)
		for j := 0; j < h; j++ {
			tw = append(tw, [3]complex128{w[j*s1], w[j*s2], w[(j+h)*s2]})
		}
	}
	return tw
}

// vecTwiddles lays a plan's pass twiddles out for the AVX passes, which
// run offsets j and j+1 side by side in one register: per pass and per
// offset pair, each of the triple's twiddles as four real parts
// (re_j, re_j, re_j+1, re_j+1) then four imaginary parts, and after the
// two-level passes the odd level's table w the same way, one twiddle a
// pair. Duplicating here keeps every shuffle out of the passes.
func vecTwiddles(tw [][3]complex128, w []complex128, n int) []float64 {
	var v []float64
	dup := func(a, b complex128) {
		v = append(v, real(a), real(a), real(b), real(b), imag(a), imag(a), imag(b), imag(b))
	}
	h := 4
	for ; 4*h <= n; h *= 4 {
		for j := 0; j < h; j += 2 {
			for k := range 3 {
				dup(tw[j][k], tw[j+1][k])
			}
		}
		tw = tw[h:]
	}
	if 2*h == n {
		for j := 0; j < h; j += 2 {
			dup(w[j], w[j+1])
		}
	}
	return v
}

// check panics unless x is a line of the plan's length. Without it a
// longer line has a prefix transformed in silence and a shorter one dies on
// an index in the middle of a pass.
func (p *plan) check(x []complex128) {
	if len(x) != p.n {
		panic(fmt.Sprintf("fft: line of %d for a plan of %d", len(x), p.n))
	}
}

// transform runs an in-place FFT over x, a line of the plan's length in
// natural order. inverse selects the conjugate twiddles; scaling by 1/n
// for the inverse is done by the caller.
func transform(x []complex128, p *plan, inverse bool) {
	p.check(x)
	for i, j := range p.rev {
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	butterflies(x, p, inverse)
}

// butterflies is transform for a line already in bit-reversed order
// (element i of the natural-order line at x[p.rev[i]]): a caller that
// fills the line itself writes through p.rev and skips the swap pass.
//
// It is the decimation-in-time radix-2 FFT with its levels executed two
// to a pass. A radix-2 level of size s combines x[j] and x[j+s/2]*w into
// their sum and difference; the levels of size s and 2s touch the same
// four elements x[j], x[j+s/2], x[j+s], x[j+3s/2], so one pass over four
// quarter-slices runs both while the operands are in registers, and the
// line is read and written log2(n)/2 times, not log2(n). A pass executes
// the floating-point operations of the two levels it replaces on the same
// operands in the same order — only independent butterflies interleave —
// so every output bit is the one-level-a-pass loop's
// (TestTransformBitsEqualRadix2). That is why the second level still
// multiplies by the table's w[n/4] instead of rotating by -+i: the
// Sincos-derived entry is not exactly -+i, and the one-level loop
// multiplies by it. What is exact there is exact here: sizes 2 and 4
// (twiddles 1 and -+i by construction, additions and component swaps
// only) and the offset-0 butterfly of every level (twiddle 1, no
// multiply).
//
// Where the CPU has AVX (vector), butterfliesAVX runs the same passes two
// offsets a register in amd64 assembly; butterfliesGo is its bit oracle and
// the path everywhere else.
func butterflies(x []complex128, p *plan, inverse bool) {
	p.check(x)
	if vector && p.n >= 4 {
		butterfliesAVX(x, p, inverse)
		return
	}
	butterfliesGo(x, p, inverse)
}

// vector selects the AVX passes: cpuid.AVX, read once. Tests clear it to
// hold the passes to the Go loops.
var vector = cpuid.AVX

// butterfliesGo is butterflies in Go, one complex128 at a time.
func butterfliesGo(x []complex128, p *plan, inverse bool) {
	n := p.n
	if n < 4 {
		if n == 2 {
			x[0], x[1] = x[0]+x[1], x[0]-x[1]
		}
		return
	}
	// Sizes 2 and 4.
	w, tw := p.wFwd, p.twFwd
	if inverse {
		w, tw = p.wInv, p.twInv
		for q := x; len(q) >= 4; q = q[4:] {
			a, b, c, d := q[0], q[1], q[2], q[3]
			a, b = a+b, a-b
			c, d = c+d, c-d
			d = complex(-imag(d), real(d)) // i * d
			q[0], q[2] = a+c, a-c
			q[1], q[3] = b+d, b-d
		}
	} else {
		for q := x; len(q) >= 4; q = q[4:] {
			a, b, c, d := q[0], q[1], q[2], q[3]
			a, b = a+b, a-b
			c, d = c+d, c-d
			d = complex(imag(d), -real(d)) // -i * d
			q[0], q[2] = a+c, a-c
			q[1], q[3] = b+d, b-d
		}
	}
	// Sizes 2h and 4h, h = 4, 16, 64, ... The quarter-slices and the
	// pass's twiddles are cut to one length so the inner loop indexes all
	// five without a bounds check.
	h := 4
	for ; 4*h <= n; h *= 4 {
		t := tw[:h]
		tw = tw[h:]
		for blk := x; len(blk) >= 4*h; blk = blk[4*h:] {
			q0 := blk[:len(t)]
			q1 := blk[h:][:len(t)]
			q2 := blk[2*h:][:len(t)]
			q3 := blk[3*h:][:len(t)]
			// Offset 0: the first level's twiddle and the second level's
			// for q0/q2 are exactly 1; q1/q3 take w[n/4].
			a, b, c, d := q0[0], q1[0], q2[0], q3[0]
			a, b = a+b, a-b
			c, d = c+d, c-d
			d *= t[0][2]
			q0[0], q2[0] = a+c, a-c
			q1[0], q3[0] = b+d, b-d
			for j := 1; j < len(t); j++ {
				tj := &t[j]
				a, b, c, d := q0[j], q1[j]*tj[0], q2[j], q3[j]*tj[0]
				a, b = a+b, a-b
				c, d = c+d, c-d
				c *= tj[1]
				d *= tj[2]
				q0[j], q2[j] = a+c, a-c
				q1[j], q3[j] = b+d, b-d
			}
		}
	}
	// An odd level count leaves the level of size n = 2h, whose twiddles
	// are the table itself at stride 1.
	if 2*h == n {
		w = w[:h]
		lo, hi := x[:len(w)], x[h:][:len(w)]
		u, v := lo[0], hi[0]
		lo[0], hi[0] = u+v, u-v
		for j := 1; j < len(w); j++ {
			u, v := lo[j], hi[j]*w[j]
			lo[j], hi[j] = u+v, u-v
		}
	}
}

// Forward computes the in-place forward FFT of x (len must be a power of
// two).
func Forward(x []complex128) { transform(x, getPlan(len(x)), false) }

// Inverse computes the in-place inverse FFT of x, including the 1/n
// normalization.
func Inverse(x []complex128) {
	transform(x, getPlan(len(x)), true)
	inv := complex(1/float64(len(x)), 0)
	for i := range x {
		x[i] *= inv
	}
}

// Forward2D computes the in-place 2-D forward FFT of c, which must be
// square with a power-of-two side.
func Forward2D(c *grid.CField) { transform2D(c, false) }

// Inverse2D computes the in-place 2-D inverse FFT of c, including the
// 1/(W*H) normalization. c must be square with a power-of-two side.
func Inverse2D(c *grid.CField) {
	transform2D(c, true)
	inv := complex(1/float64(c.W*c.H), 0)
	for i := range c.Data {
		c.Data[i] *= inv
	}
}

// 2-D transform counters: calls and the points they covered (W*H a
// call), so a metrics scrape shows how the FFT budget is spent under
// names that do not depend on the input.
var (
	tf2dTotal  = obs.NewCounter("fft_2d_transforms_total")
	tf2dPoints = obs.NewCounter("fft_2d_points_total")
)

// parallelElems is the field size (in elements) above which the row and
// column passes of a 2-D transform fan out across cores. Below it,
// goroutine overhead beats the win; the threshold corresponds to a 256x256
// grid, where a full pass costs hundreds of microseconds. With the pool's
// helpers warm inside a descent, 1<<14 (the 128x128 spectrum and gradient
// transforms) was measured too and gained nothing (results/README.md).
const parallelElems = 1 << 16

// chunked runs pass over the n rows or columns of a transform of elems
// elements: as one call below parallelElems, as at most GOMAXPROCS
// contiguous chunks in parallel from there up. Each row or column is its
// own output, so the chunk boundaries never reach the bits.
func chunked(elems, n int, pass func(lo, hi int)) {
	if elems < parallelElems {
		pass(0, n)
		return
	}
	chunks := min(runtime.GOMAXPROCS(0), n)
	par.For(chunks, func(c int) { pass(c*n/chunks, (c+1)*n/chunks) })
}

// transform2D runs the rows, transposes, runs the rows again and transposes
// back, so both passes stream memory sequentially instead of striding down
// columns.
func transform2D(c *grid.CField, inverse bool) {
	if c.W != c.H {
		panic(fmt.Sprintf("fft: 2-D transform of a %dx%d field, want a square", c.W, c.H))
	}
	tf2dTotal.Inc()
	tf2dPoints.Add(int64(c.W * c.H))
	p := getPlan(c.W)
	rows := func() {
		chunked(c.W*c.H, c.H, func(lo, hi int) {
			for y := lo; y < hi; y++ {
				transform(c.Row(y), p, inverse)
			}
		})
	}
	rows()
	transposeSquare(c)
	rows()
	transposeSquare(c)
}

// transposeSquare transposes a square field in place with cache blocking.
func transposeSquare(c *grid.CField) {
	const blk = 32
	n := c.W
	d := c.Data
	for by := 0; by < n; by += blk {
		yEnd := by + blk
		if yEnd > n {
			yEnd = n
		}
		for bx := by; bx < n; bx += blk {
			xEnd := bx + blk
			if xEnd > n {
				xEnd = n
			}
			for y := by; y < yEnd; y++ {
				xStart := bx
				if bx == by {
					xStart = y + 1 // skip the diagonal block's lower half
				}
				for x := xStart; x < xEnd; x++ {
					i, j := y*n+x, x*n+y
					d[i], d[j] = d[j], d[i]
				}
			}
		}
	}
}

// ExtractCenter pulls the centered (2k+1) x (2k+1) low-frequency block out
// of an *unshifted* spectrum c: frequencies fx, fy in [-k, k], returned as a
// (2k+1)^2 field indexed with (0,0) at fx=fy=-k.
func ExtractCenter(c *grid.CField, k int) *grid.CField {
	n := 2*k + 1
	out := grid.NewC(n, n)
	for dy := -k; dy <= k; dy++ {
		sy := (dy + c.H) % c.H
		for dx := -k; dx <= k; dx++ {
			sx := (dx + c.W) % c.W
			out.Set(dx+k, dy+k, c.At(sx, sy))
		}
	}
	return out
}

// EmbedCenter writes a (2k+1) x (2k+1) low-frequency block blk (indexed as
// produced by ExtractCenter) into a zeroed W x H unshifted spectrum.
func EmbedCenter(blk *grid.CField, w, h int) *grid.CField {
	if blk.W != blk.H || blk.W%2 != 1 {
		panic("fft: EmbedCenter block must be odd square")
	}
	k := blk.W / 2
	out := grid.NewC(w, h)
	for dy := -k; dy <= k; dy++ {
		sy := (dy + h) % h
		for dx := -k; dx <= k; dx++ {
			sx := (dx + w) % w
			out.Set(sx, sy, blk.At(dx+k, dy+k))
		}
	}
	return out
}
