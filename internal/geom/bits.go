package geom

import "mosaic/internal/frame"

// AppendBits writes the geometry that determines a run's bits — the clip
// size, the ring lengths and every coordinate, in order — to the
// canonical scalar stream. The Name is deliberately not part of it: a
// tile window's name embeds its position in the full layout, and
// position must not reach a content key. Rings are written as given
// rather than sorted: a reordering costs a recompute, never a wrong hit.
func (l *Layout) AppendBits(w *frame.Writer) {
	w.F64(l.SizeNM)
	w.I64(int64(len(l.Polys)))
	for _, p := range l.Polys {
		w.I64(int64(len(p)))
		for _, pt := range p {
			w.F64(pt.X)
			w.F64(pt.Y)
		}
	}
}

// scalars lists a sample's fields in payload order.
func (s *Sample) scalars() []any {
	return []any{&s.Pt.X, &s.Pt.Y, &s.Horizontal, &s.InwardX, &s.InwardY}
}

// AppendSamples writes EPE samples to the canonical scalar stream.
func AppendSamples(w *frame.Writer, samples []Sample) {
	w.I64(int64(len(samples)))
	for i := range samples {
		w.Put(samples[i].scalars()...)
	}
}
