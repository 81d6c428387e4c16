// Package fft implements the fast Fourier transforms used by the optical
// simulator: an iterative radix-2 complex FFT, 2-D transforms over
// grid.CField, fftshift helpers, and band-limited embedding/extraction of
// low-frequency blocks (the imaging system is heavily band-limited, so
// optical kernels live on a small central frequency patch of the full mask
// spectrum).
//
// The band-limit is also exploited computationally: InverseBandLimited,
// ForwardBandLimited and ForwardBandLimitedReal in bandlimited.go prune
// the transform passes that only touch zero (or discarded) frequencies,
// roughly halving the FFT work per convolution, and large transforms
// parallelize their row/column passes across cores.
//
// All transform lengths must be powers of two; NextPow2 rounds sizes up.
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"

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

// plan caches twiddle factors and the bit-reversal permutation for a given
// transform length.
type plan struct {
	n    int
	rev  []int
	wFwd []complex128 // forward twiddles, w[k] = exp(-2*pi*i*k/n), k < n/2
	wInv []complex128 // inverse twiddles
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
	plans.Store(n, p)
	return p
}

// transform runs an in-place iterative radix-2 FFT over x using the plan's
// twiddles. inverse selects the conjugate twiddles; scaling by 1/n for the
// inverse is done by the caller.
//
// The first two levels are specialized: their twiddle factors are exactly
// 1 and -+i, so they reduce to additions and component swaps with no
// complex multiplies (and no rounding from the Sincos-derived twiddle
// table). Each remaining level unrolls its k=0 butterfly the same way.
// Together these drop roughly a quarter of the complex multiplies of the
// plain radix-2 loop, which is where the per-tile numeric floor lives.
func transform(x []complex128, p *plan, inverse bool) {
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

// Forward2D computes the in-place 2-D forward FFT of c. Both dimensions
// must be powers of two.
func Forward2D(c *grid.CField) { transform2D(c, false) }

// Inverse2D computes the in-place 2-D inverse FFT of c, including the
// 1/(W*H) normalization.
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
// grid, where a full pass costs hundreds of microseconds.
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

func transform2D(c *grid.CField, inverse bool) {
	tf2dTotal.Inc()
	tf2dPoints.Add(int64(c.W * c.H))
	pw := getPlan(c.W)
	ph := getPlan(c.H)
	rows := func(p *plan) {
		chunked(c.W*c.H, c.H, func(lo, hi int) {
			for y := lo; y < hi; y++ {
				transform(c.Row(y), p, inverse)
			}
		})
	}
	rows(pw)
	if c.W == c.H {
		// Square grids (the common case): transpose, FFT rows again,
		// transpose back. Both passes then stream memory sequentially,
		// which is substantially faster than strided column access.
		transposeSquare(c)
		rows(ph) // pw == ph on a square grid
		transposeSquare(c)
		return
	}
	// Rectangular fallback: columns via a pooled scratch buffer (one per
	// worker chunk).
	chunked(c.W*c.H, c.W, func(lo, hi int) {
		scratch := grid.GetC(c.H, 1)
		col := scratch.Data
		for x := lo; x < hi; x++ {
			for y := 0; y < c.H; y++ {
				col[y] = c.Data[y*c.W+x]
			}
			transform(col, ph, inverse)
			for y := 0; y < c.H; y++ {
				c.Data[y*c.W+x] = col[y]
			}
		}
		grid.PutC(scratch)
	})
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
