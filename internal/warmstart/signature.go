// Package warmstart is the pattern-library warm-start subsystem: it
// harvests (target-pattern signature -> converged continuous mask) pairs
// from completed tile optimizations into a durable content-addressed
// library, retrieves the nearest stored pattern for each new window, and
// seeds the ILT descent from the retrieved mask instead of the rule-based
// SRAF init. The tile cache only helps on exact repeats; warm-start helps
// on *similar* patterns — the common case in real layouts — by trading a
// retrieval for most of the descent iterations. cache.Runner is the one
// policy that consults the library: where a cache is on as well, it asks
// the cache first, and a window held under its unseeded key is served
// from there and never reaches the library.
//
// The stored mask is the relaxed P-field mask (MaskGray, pre-threshold):
// seeding resumes the relaxed optimization where a past run converged,
// whereas a binarized mask would throw away exactly the sub-threshold
// assist structure the descent spent its iterations building.
package warmstart

import (
	"math"

	"mosaic/internal/geom"
	"mosaic/internal/grid"
)

const (
	// SignatureK is the descriptor edge: the window's anchored target
	// raster is area-averaged down to a SignatureK x SignatureK grid.
	// Coarse enough that a sub-pixel process bias doesn't move the
	// descriptor, fine enough to separate distinct cells.
	SignatureK = 16

	// DefaultMaxDist is the retrieval distance threshold used when
	// Options.MaxDist is zero. Signature distances are dominated by the
	// RMS of the descriptor difference, which lives in [0, 1]; identical
	// patterns at different positions measure 0, and visually similar
	// cells land well under this bound.
	DefaultMaxDist = 0.05
)

// Signature is the translation-invariant, grid-quantized descriptor of
// one window's target pattern. Desc is the SignatureK x SignatureK
// area-averaged downsample of the window raster after anchoring the
// geometry's bounding box at the window origin (so translated copies of
// a cell produce identical signatures); the summary stats separate
// patterns a coarse raster could alias together.
type Signature struct {
	Desc     [SignatureK * SignatureK]float64
	AreaFrac float64 // pattern area / window area
	Polys    int     // polygon count of the clipped window geometry
	WFrac    float64 // bbox width / window extent
	HFrac    float64 // bbox height / window extent
}

// Compute rasterizes the window-local layout, anchors it at its bounding
// box's pixel origin, and downsamples to the descriptor. It returns the
// signature plus the anchor offset in pixels that was subtracted;
// retrieval translates the stored mask by the difference of the offsets
// to carry a match back into the new window's frame. Windows smaller
// than SignatureK pixels (or not a multiple of it) get a stats-only
// signature with a zero descriptor.
func Compute(layout *geom.Layout, windowPx int, pixelNM float64) (*Signature, int, int) {
	sig := &Signature{Polys: len(layout.Polys)}
	if len(layout.Polys) == 0 {
		return sig, 0, 0
	}
	bb := layout.Polys[0].BBox()
	x0, y0 := bb.X, bb.Y
	x1, y1 := bb.X+bb.W, bb.Y+bb.H
	for _, p := range layout.Polys[1:] {
		b := p.BBox()
		x0 = math.Min(x0, b.X)
		y0 = math.Min(y0, b.Y)
		x1 = math.Max(x1, b.X+b.W)
		y1 = math.Max(y1, b.Y+b.H)
	}
	span := float64(windowPx) * pixelNM
	sig.WFrac = (x1 - x0) / span
	sig.HFrac = (y1 - y0) / span

	target := layout.Rasterize(windowPx, pixelNM)
	sig.AreaFrac = target.Sum() / float64(windowPx*windowPx)

	offX := clampPx(int(math.Floor(x0/pixelNM)), windowPx)
	offY := clampPx(int(math.Floor(y0/pixelNM)), windowPx)
	if windowPx < SignatureK || windowPx%SignatureK != 0 {
		return sig, offX, offY
	}
	ds := Translate(target, -offX, -offY).Downsample(windowPx / SignatureK)
	copy(sig.Desc[:], ds.Data)
	return sig, offX, offY
}

func clampPx(v, windowPx int) int {
	if v < 0 {
		return 0
	}
	if v >= windowPx {
		return windowPx - 1
	}
	return v
}

// Distance measures signature dissimilarity: the RMS of the descriptor
// difference plus weighted absolute differences of the summary stats.
// Zero for translated copies of one pattern; rises with shape change.
func (s *Signature) Distance(t *Signature) float64 {
	var ss float64
	for i := range s.Desc {
		d := s.Desc[i] - t.Desc[i]
		ss += d * d
	}
	dist := math.Sqrt(ss / float64(len(s.Desc)))
	dist += 0.5 * math.Abs(s.AreaFrac-t.AreaFrac)
	dist += 0.25 * (math.Abs(s.WFrac-t.WFrac) + math.Abs(s.HFrac-t.HFrac))
	if s.Polys != t.Polys {
		dist += 0.01 * math.Abs(float64(s.Polys-t.Polys))
	}
	return dist
}

// Translate returns a copy of src shifted by (dx, dy) pixels, zero-filled
// where the shift leaves the frame: mask content carried beyond the
// stored window is dark, matching the empty background the optimizer
// would have started from there anyway.
func Translate(src *grid.Field, dx, dy int) *grid.Field {
	out := grid.New(src.W, src.H)
	if dx == 0 && dy == 0 {
		copy(out.Data, src.Data)
		return out
	}
	for y := 0; y < src.H; y++ {
		sy := y - dy
		if sy < 0 || sy >= src.H {
			continue
		}
		dst := out.Row(y)
		srow := src.Row(sy)
		for x := 0; x < src.W; x++ {
			if sx := x - dx; sx >= 0 && sx < src.W {
				dst[x] = srow[sx]
			}
		}
	}
	return out
}
