package frame

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"

	"mosaic/internal/grid"
)

// Writer emits the canonical scalar stream, either into a frame it builds
// in memory (NewFrame) or into a SHA-256 (Digest) — so the same calls
// that fill a cache entry produce the key it is stored under.
type Writer struct {
	h   hash.Hash // nil: accumulate in b
	b   []byte    // the frame under construction: reserved header + payload
	tmp [1024]byte
}

// NewFrame returns a Writer accumulating one frame with room for
// payloadHint payload bytes; the payload lands once, behind reserved
// header bytes, so sealing a raster-sized frame costs no second copy.
func NewFrame(payloadHint int) *Writer {
	return &Writer{b: make([]byte, HeaderLen, HeaderLen+payloadHint)}
}

// Payload returns the payload accumulated by a NewFrame writer.
func (w *Writer) Payload() []byte { return w.b[HeaderLen:] }

// Seal fills in the header of a NewFrame writer and returns the frame.
func (w *Writer) Seal(magic uint32) []byte {
	putHeader(w.b, magic, w.b[HeaderLen:])
	return w.b
}

// Digest returns the SHA-256 of the stream write produces: the content
// keys (cache, warm-start family and entry, manifest geometry and seed).
func Digest(write func(*Writer)) (sum [sha256.Size]byte) {
	w := &Writer{h: sha256.New()}
	write(w)
	w.h.Sum(sum[:0])
	return sum
}

// FieldDigest is the Digest of one raster's Field stream: the seed digest
// a manifest records and a tile-cache key folds in.
func FieldDigest(f *grid.Field) [sha256.Size]byte {
	return Digest(func(w *Writer) { w.Field(f) })
}

// Raw writes bytes as they are, with no length prefix.
func (w *Writer) Raw(p []byte) {
	if w.h != nil {
		w.h.Write(p) // a hash never fails
	} else {
		w.b = append(w.b, p...)
	}
}

// I64 writes one integer scalar.
func (w *Writer) I64(v int64) {
	binary.LittleEndian.PutUint64(w.tmp[:8], uint64(v))
	w.Raw(w.tmp[:8])
}

// F64 writes a float as its IEEE-754 bit pattern.
func (w *Writer) F64(v float64) { w.I64(int64(math.Float64bits(v))) }

// Bool writes 1 or 0.
func (w *Writer) Bool(v bool) {
	if v {
		w.I64(1)
	} else {
		w.I64(0)
	}
}

// Str writes a length-prefixed string.
func (w *Writer) Str(s string) {
	w.I64(int64(len(s)))
	w.Raw([]byte(s))
}

// Put writes the values behind *float64, *int, *bool and *string
// pointers. A codec that hands one such list per struct to both Put and
// Reader.Get cannot let its two halves drift.
func (w *Writer) Put(ps ...any) {
	for _, p := range ps {
		switch p := p.(type) {
		case *float64:
			w.F64(*p)
		case *int:
			w.I64(int64(*p))
		case *bool:
			w.Bool(*p)
		case *string:
			w.Str(*p)
		default:
			panic(fmt.Sprintf("frame: Put(%T)", p))
		}
	}
}

// Floats writes a run of floats with no length prefix.
func (w *Writer) Floats(vs []float64) {
	for len(vs) > 0 {
		n := min(len(vs), len(w.tmp)/8)
		for i, v := range vs[:n] {
			binary.LittleEndian.PutUint64(w.tmp[8*i:], math.Float64bits(v))
		}
		w.Raw(w.tmp[:8*n])
		vs = vs[n:]
	}
}

// Field writes a raster as W, H and its row-major samples; nil is the
// single scalar -1.
func (w *Writer) Field(f *grid.Field) {
	if f == nil {
		w.I64(-1)
		return
	}
	w.I64(int64(f.W))
	w.I64(int64(f.H))
	w.Floats(f.Data)
}

// Reader consumes a payload, latching the first error: after a failure
// every read returns a zero value, so a decoder reads its whole layout
// and checks Done once. No length field is trusted beyond the bytes left.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader returns a Reader over payload.
func NewReader(payload []byte) *Reader { return &Reader{data: payload} }

// Fail latches a decoder's own validation error.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// Err returns the latched error.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.data) - r.off }

// Done returns the latched error, or an error when unread bytes remain:
// a payload is exactly its layout.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.data) {
		r.Fail("frame: %d trailing bytes after the payload", r.Len())
	}
	return r.err
}

// Raw returns the next n bytes, aliasing the payload.
func (r *Reader) Raw(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.Len() {
		r.Fail("frame: truncated payload at byte %d", r.off)
		return nil
	}
	p := r.data[r.off : r.off+n]
	r.off += n
	return p
}

// I64 reads one integer scalar.
func (r *Reader) I64() int64 {
	p := r.Raw(8)
	if p == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(p))
}

// F64 reads a float from its bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(uint64(r.I64())) }

// Bool reads a truth value; anything but the 0 or 1 Writer.Bool emits is
// an error, so every payload has exactly one encoding.
func (r *Reader) Bool() bool {
	v := r.I64()
	if r.err == nil && v&^1 != 0 {
		r.Fail("frame: boolean scalar holds %d", v)
	}
	return v == 1
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string { return string(r.Raw(r.Count(1))) }

// Get fills the scalars behind a list of pointers; see Writer.Put.
func (r *Reader) Get(ps ...any) {
	for _, p := range ps {
		switch p := p.(type) {
		case *float64:
			*p = r.F64()
		case *int:
			*p = int(r.I64())
		case *bool:
			*p = r.Bool()
		case *string:
			*p = r.Str()
		default:
			panic(fmt.Sprintf("frame: Get(%T)", p))
		}
	}
}

// Version reads the leading version scalar and fails unless it is want:
// a reader never guesses at another generation's layout.
func (r *Reader) Version(want int64) {
	if v := r.I64(); r.err == nil && v != want {
		r.Fail("frame: payload version %d, want %d", v, want)
	}
}

// Count reads a sequence length and bounds it: each element occupies at
// least per bytes, so the remaining payload caps the plausible count.
func (r *Reader) Count(per int) int {
	n := r.I64()
	if r.err == nil && (n < 0 || n > int64(r.Len()/per)) {
		r.Fail("frame: sequence length %d exceeds the payload", n)
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// Grid reads the w*h samples of a raster whose dimensions the caller
// already read, rejecting them — before allocating — when either exceeds
// MaxFieldDim or their product the bytes left.
func (r *Reader) Grid(w, h int64) *grid.Field {
	if r.err != nil {
		return nil
	}
	if w <= 0 || h <= 0 || w > MaxFieldDim || h > MaxFieldDim || w*h > int64(r.Len()/8) {
		r.Fail("frame: %dx%d raster does not fit the %d payload bytes left", w, h, r.Len())
		return nil
	}
	f := grid.New(int(w), int(h))
	p := r.Raw(8 * len(f.Data))
	for i := range f.Data {
		f.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
	}
	return f
}

// Field reads a raster written by Writer.Field; nil for the -1 marker.
func (r *Reader) Field() *grid.Field {
	w := r.I64()
	if r.err != nil || w == -1 {
		return nil
	}
	return r.Grid(w, r.I64())
}
