package ilt

import (
	"reflect"

	"mosaic/internal/frame"
	"mosaic/internal/optics"
	"mosaic/internal/resist"
)

// Bits is the parameter set that, with a window's geometry and EPE
// samples, determines the bits a run produces. Fields is the one place
// that enumerates it: the tile-cache key, the warm-start family and the
// provenance manifest are all derived from that list, so a new parameter
// is added once — and
// TestBitsFieldsClassifyEveryField fails until it is either listed there
// or declared not to affect the bits.
type Bits struct {
	Optics *optics.Config
	Resist *resist.Model
	Cfg    *Config
}

// Fields visits every bits-determining scalar: its manifest section and
// key, and a pointer whose type (*float64, *int, *bool) is its kind. The
// order is the byte order of the cache key: it must not change, and a new
// row needs a cache.DigestVersion bump. Config.SeedMask also determines
// the bits but is a raster: the key and the manifest write it with
// frame.Writer.Field.
func (b Bits) Fields(visit func(section, name string, p any)) {
	o, r, c := b.Optics, b.Resist, b.Cfg
	visit("optics", "wavelength_nm", &o.WavelengthNM)
	visit("optics", "na", &o.NA)
	visit("optics", "sigma_in", &o.SigmaIn)
	visit("optics", "sigma_out", &o.SigmaOut)
	visit("optics", "pixel_nm", &o.PixelNM)
	visit("optics", "grid_size", &o.GridSize)
	visit("optics", "kernels", &o.Kernels)

	visit("resist", "threshold", &r.Threshold)
	visit("resist", "theta_z", &r.ThetaZ)

	visit("optimizer", "mode", (*int)(&c.Mode))
	visit("optimizer", "beta", &c.Beta)
	visit("optimizer", "gamma", &c.Gamma)
	visit("optimizer", "max_iter", &c.MaxIter)
	visit("optimizer", "sraf_init", &c.SRAFInit)
	visit("optimizer", "grad_kernels", &c.GradKernels)
	visit("optimizer", "defocus_nm", &c.DefocusNM)
	visit("optimizer", "dose_delta", &c.DoseDelta)
}

// Append writes every field to the canonical scalar stream.
func (b Bits) Append(w *frame.Writer) {
	b.Fields(func(_, _ string, p any) { w.Put(p) })
}

// Sections groups the field values by section and manifest key — the
// "optics", "resist" and "optimizer" objects of the provenance manifest
// (encoding/json sorts the keys, so the rendering is canonical).
func (b Bits) Sections() map[string]map[string]any {
	out := map[string]map[string]any{}
	b.Fields(func(section, name string, p any) {
		if out[section] == nil {
			out[section] = map[string]any{}
		}
		out[section][name] = reflect.ValueOf(p).Elem().Interface()
	})
	return out
}

// scalars lists the result body's fixed-size fields in payload order.
func (res *Result) scalars() []any {
	return []any{&res.Objective, &res.Iterations, &res.RuntimeSec, &res.Seeded}
}

// NewResultFrame starts a frame with the one layout every store gives a
// result: a leading scalar — the entry version, all that the two formats
// differ in — then window size, objective, iterations, runtime, the
// seeded flag and the continuous mask, written once into a buffer sized
// for them: every field of a Result but the Mask ReadResult derives. The
// result must carry a square MaskGray.
func NewResultFrame(lead int64, res *Result) *frame.Writer {
	w := frame.NewFrame(48 + 8*len(res.MaskGray.Data))
	w.I64(lead)
	w.I64(int64(res.MaskGray.W))
	w.Put(res.scalars()...)
	w.Floats(res.MaskGray.Data)
	return w
}

// ReadResult rebuilds the result behind the leading scalar of a
// NewResultFrame payload; errors latch in r, and a failed read returns nil. The binary mask is
// re-derived by thresholding the continuous one, exactly as the
// optimizer produced it, so a stored result is indistinguishable from a
// freshly computed one.
func ReadResult(r *frame.Reader) *Result {
	res := &Result{}
	w := r.I64()
	r.Get(res.scalars()...)
	if res.MaskGray = r.Grid(w, w); res.MaskGray == nil {
		return nil
	}
	res.Mask = res.MaskGray.Threshold(0.5)
	return res
}
