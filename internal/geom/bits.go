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

// ReadBits fills SizeNM and Polys from a stream written by AppendBits;
// errors latch in r.
func (l *Layout) ReadBits(r *frame.Reader) {
	l.SizeNM = r.F64()
	l.Polys = nil
	for n := r.Count(8); n > 0 && r.Err() == nil; n-- {
		poly := make(Polygon, r.Count(16))
		for k := range poly {
			poly[k].X = r.F64()
			poly[k].Y = r.F64()
		}
		l.Polys = append(l.Polys, poly)
	}
}

// sampleBytes is the encoded size of one Sample.
const sampleBytes = 5 * 8

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

// ReadSamples reads samples written by AppendSamples; errors latch in r.
func ReadSamples(r *frame.Reader) []Sample {
	samples := make([]Sample, r.Count(sampleBytes))
	for i := range samples {
		r.Get(samples[i].scalars()...)
	}
	return samples
}
