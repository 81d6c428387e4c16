// Package grid provides dense 2-D scalar fields used throughout the
// lithography pipeline: real-valued fields for masks, aerial images and
// printed images, and complex-valued fields for frequency-domain work.
//
// Fields are stored row-major in a single flat backing slice so that
// element-wise kernels run cache-friendly and can be handed directly to the
// FFT engine. All binary operations require identical dimensions and panic
// otherwise; dimension mismatches are programming errors, not runtime
// conditions a caller could recover from.
package grid

import "fmt"

// Field is a dense 2-D array of float64 with W columns and H rows.
// The zero value is an empty field; use New to allocate.
type Field struct {
	W, H int
	Data []float64 // len == W*H, row-major
}

// New returns a zero-initialized W x H field.
func New(w, h int) *Field {
	if w < 0 || h < 0 {
		panic(fmt.Sprintf("grid: negative dimensions %dx%d", w, h))
	}
	return &Field{W: w, H: h, Data: make([]float64, w*h)}
}

// NewLike returns a zero field with the same dimensions as f.
func NewLike(f *Field) *Field { return New(f.W, f.H) }

// FromRows builds a field from a slice of equal-length rows.
func FromRows(rows [][]float64) *Field {
	h := len(rows)
	if h == 0 {
		return New(0, 0)
	}
	w := len(rows[0])
	f := New(w, h)
	for y, r := range rows {
		if len(r) != w {
			panic("grid: ragged rows")
		}
		copy(f.Row(y), r)
	}
	return f
}

// At returns the value at column x, row y.
func (f *Field) At(x, y int) float64 { return f.Data[y*f.W+x] }

// Set stores v at column x, row y.
func (f *Field) Set(x, y int, v float64) { f.Data[y*f.W+x] = v }

// Row returns the backing slice for row y (shared, not copied).
func (f *Field) Row(y int) []float64 { return f.Data[y*f.W : (y+1)*f.W] }

// Clone returns a deep copy of f.
func (f *Field) Clone() *Field {
	g := New(f.W, f.H)
	copy(g.Data, f.Data)
	return g
}

// Zero clears every element and returns f. The range-clear loop compiles
// to a memclr, so this is the cheapest way to reset a pooled field.
func (f *Field) Zero() *Field {
	for i := range f.Data {
		f.Data[i] = 0
	}
	return f
}

// Fill sets every element to v and returns f.
func (f *Field) Fill(v float64) *Field {
	for i := range f.Data {
		f.Data[i] = v
	}
	return f
}

func (f *Field) check(g *Field) {
	if f.W != g.W || f.H != g.H {
		panic(fmt.Sprintf("grid: dimension mismatch %dx%d vs %dx%d", f.W, f.H, g.W, g.H))
	}
}

// Add sets f = f + g element-wise and returns f.
func (f *Field) Add(g *Field) *Field {
	f.check(g)
	for i, v := range g.Data {
		f.Data[i] += v
	}
	return f
}

// AddScaled sets f = f + s*g element-wise and returns f.
func (f *Field) AddScaled(g *Field, s float64) *Field {
	f.check(g)
	for i, v := range g.Data {
		f.Data[i] += s * v
	}
	return f
}

// Sum returns the sum of all elements.
func (f *Field) Sum() float64 {
	s := 0.0
	for _, v := range f.Data {
		s += v
	}
	return s
}

// Dot returns the element-wise inner product of f and g.
func (f *Field) Dot(g *Field) float64 {
	f.check(g)
	s := 0.0
	for i, v := range f.Data {
		s += v * g.Data[i]
	}
	return s
}

// MinMax returns the smallest and largest element. It panics on an empty
// field.
func (f *Field) MinMax() (lo, hi float64) {
	if len(f.Data) == 0 {
		panic("grid: MinMax of empty field")
	}
	lo, hi = f.Data[0], f.Data[0]
	for _, v := range f.Data[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// RMS returns the root mean square of all elements (0 for an empty field).
func (f *Field) RMS() float64 {
	if len(f.Data) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range f.Data {
		s += v * v
	}
	return sqrt(s / float64(len(f.Data)))
}

// Threshold returns a new binary field: 1 where f > thr, else 0.
func (f *Field) Threshold(thr float64) *Field {
	g := New(f.W, f.H)
	for i, v := range f.Data {
		if v > thr {
			g.Data[i] = 1
		}
	}
	return g
}

// Crop returns a copy of the w x h sub-field whose top-left corner is
// (x0, y0). The rectangle must lie fully inside f.
func (f *Field) Crop(x0, y0, w, h int) *Field {
	if x0 < 0 || y0 < 0 || x0+w > f.W || y0+h > f.H {
		panic(fmt.Sprintf("grid: crop %d,%d %dx%d outside %dx%d", x0, y0, w, h, f.W, f.H))
	}
	g := New(w, h)
	for y := 0; y < h; y++ {
		copy(g.Row(y), f.Row(y0 + y)[x0:x0+w])
	}
	return g
}

// Downsample returns a field reduced by integer factor k in each dimension,
// averaging each k x k block. W and H must be divisible by k.
func (f *Field) Downsample(k int) *Field {
	if k <= 0 || f.W%k != 0 || f.H%k != 0 {
		panic(fmt.Sprintf("grid: cannot downsample %dx%d by %d", f.W, f.H, k))
	}
	g := New(f.W/k, f.H/k)
	inv := 1.0 / float64(k*k)
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			s := 0.0
			for dy := 0; dy < k; dy++ {
				row := f.Row(y*k + dy)
				for dx := 0; dx < k; dx++ {
					s += row[x*k+dx]
				}
			}
			g.Set(x, y, s*inv)
		}
	}
	return g
}

// Equal reports whether f and g have the same dimensions and every pair of
// elements differs by at most tol.
func (f *Field) Equal(g *Field, tol float64) bool {
	if f.W != g.W || f.H != g.H {
		return false
	}
	for i, v := range f.Data {
		d := v - g.Data[i]
		if d < -tol || d > tol {
			return false
		}
	}
	return true
}
