package grid

import (
	"fmt"
	"math"
	"math/cmplx"

	"mosaic/internal/cpuid"
)

func sqrt(v float64) float64 { return math.Sqrt(v) }

// CField is a dense 2-D array of complex128 with W columns and H rows,
// stored row-major. It is the working representation for optical fields and
// frequency-domain data.
type CField struct {
	W, H int
	Data []complex128 // len == W*H, row-major
}

// NewC returns a zero-initialized W x H complex field.
func NewC(w, h int) *CField {
	if w < 0 || h < 0 {
		panic(fmt.Sprintf("grid: negative dimensions %dx%d", w, h))
	}
	return &CField{W: w, H: h, Data: make([]complex128, w*h)}
}

// ToComplex lifts a real field into a complex field with zero imaginary
// parts.
func ToComplex(f *Field) *CField {
	c := NewC(f.W, f.H)
	for i, v := range f.Data {
		c.Data[i] = complex(v, 0)
	}
	return c
}

// At returns the value at column x, row y.
func (c *CField) At(x, y int) complex128 { return c.Data[y*c.W+x] }

// Set stores v at column x, row y.
func (c *CField) Set(x, y int, v complex128) { c.Data[y*c.W+x] = v }

// Row returns the backing slice for row y (shared, not copied).
func (c *CField) Row(y int) []complex128 { return c.Data[y*c.W : (y+1)*c.W] }

// Zero clears every element and returns c. The range-clear loop compiles
// to a memclr, so this is the cheapest way to reset a pooled field.
func (c *CField) Zero() *CField {
	for i := range c.Data {
		c.Data[i] = 0
	}
	return c
}

// Clone returns a deep copy of c.
func (c *CField) Clone() *CField {
	g := NewC(c.W, c.H)
	copy(g.Data, c.Data)
	return g
}

func (c *CField) check(g *CField) {
	if c.W != g.W || c.H != g.H {
		panic(fmt.Sprintf("grid: dimension mismatch %dx%d vs %dx%d", c.W, c.H, g.W, g.H))
	}
}

// MulC sets c = c * g element-wise and returns c.
func (c *CField) MulC(g *CField) *CField {
	c.check(g)
	for i, v := range g.Data {
		c.Data[i] *= v
	}
	return c
}

// AddC sets c = c + g element-wise and returns c.
func (c *CField) AddC(g *CField) *CField {
	c.check(g)
	for i, v := range g.Data {
		c.Data[i] += v
	}
	return c
}

// ScaleC multiplies every element by s and returns c.
func (c *CField) ScaleC(s complex128) *CField {
	for i := range c.Data {
		c.Data[i] *= s
	}
	return c
}

// Abs2 returns |c|^2 element-wise as a new Field.
func (c *CField) Abs2() *Field {
	f := New(c.W, c.H)
	for i, v := range c.Data {
		re, im := real(v), imag(v)
		f.Data[i] = re*re + im*im
	}
	return f
}

// AccumAbs2 adds w*|c|^2 element-wise into dst. Dimensions must match.
// Where cpuid.PixelAVX holds, accumAbs2AVX runs four elements a step and
// the Go loop the tail, with the same bits.
func (c *CField) AccumAbs2(dst *Field, w float64) {
	if c.W != dst.W || c.H != dst.H {
		panic("grid: dimension mismatch in AccumAbs2")
	}
	i := 0
	if cpuid.PixelAVX {
		i = accumAbs2AVX(dst.Data, c.Data, w)
	}
	for ; i < len(c.Data); i++ {
		v := c.Data[i]
		re, im := real(v), imag(v)
		dst.Data[i] += w * (re*re + im*im)
	}
}

// EqualC reports whether c and g have the same dimensions and every pair of
// elements differs by at most tol in modulus.
func (c *CField) EqualC(g *CField, tol float64) bool {
	if c.W != g.W || c.H != g.H {
		return false
	}
	for i, v := range c.Data {
		if cmplx.Abs(v-g.Data[i]) > tol {
			return false
		}
	}
	return true
}
