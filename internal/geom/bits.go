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

// AppendSamples writes EPE samples to the canonical scalar stream: the
// count, then each sample's Pt.X, Pt.Y, Horizontal, InwardX and InwardY.
// The writes are typed rather than one Writer.Put a sample, whose []any
// of pointers cost most of a cache key's time.
func AppendSamples(w *frame.Writer, samples []Sample) {
	w.I64(int64(len(samples)))
	for i := range samples {
		s := &samples[i]
		w.F64(s.Pt.X)
		w.F64(s.Pt.Y)
		w.Bool(s.Horizontal)
		w.F64(s.InwardX)
		w.F64(s.InwardY)
	}
}
