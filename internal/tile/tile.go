// Package tile shards a full-size layout into halo-padded windows so the
// clip-level ILT engine can optimize layouts of unbounded extent. It
// exploits the finite optical interaction radius: a mask perturbation
// farther than the kernel support from a pixel cannot change its image,
// so tiles padded by at least that ambit can be optimized independently
// and stitched into a seamless full-layout mask.
//
// The pipeline has three stages:
//
//   - decomposition (Plan): split the layout into a grid of fixed-size
//     core tiles, each embedded in a padded window whose half-width halo
//     is derived from the optical kernel support (λ/NA by default) and
//     then rounded up so the window grid is a power of two (the FFT and
//     optics constraint). Feature polygons and the full-layout EPE sample
//     set are clipped into each window.
//   - scheduling (Plan.Optimize): a bounded worker pool runs one
//     ilt.Optimizer per tile concurrently. Kernel stacks are built once
//     up front and shared read-only; per-tile scratch comes from the
//     pooled workspaces. Results land in deterministic plan order, a
//     context cancels the pool, and the first tile error fails the run.
//   - stitching (Plan.Stitch): halos are discarded and core regions
//     reassembled, with a raised-cosine cross-fade of the continuous
//     masks over a configurable seam band so binarization cannot leave a
//     hard seam artifact. Plan.Evaluate reruns the tiled simulation on
//     the stitched mask so metrics report on the full layout, not per
//     tile.
package tile

import (
	"fmt"
	"math"

	"mosaic/internal/frame"
	"mosaic/internal/geom"
	"mosaic/internal/ilt"
	"mosaic/internal/optics"
)

// DefaultHaloNM returns the default halo width for an imaging
// configuration: the λ/NA ambit of the optical kernels. The plan rounds
// the window up to a power-of-two grid, so the effective halo is usually
// substantially wider than this floor.
func DefaultHaloNM(c optics.Config) float64 {
	return c.WavelengthNM / c.NA
}

// Tile is one halo-padded window of a Plan. Core coordinates are pixels
// on the full-layout grid; the window origin may be negative (the halo of
// a border tile overhangs the layout, where the geometry is simply
// empty).
type Tile struct {
	Index    int // row-major position in the plan
	Col, Row int

	// Core pixel rectangle on the full grid: [CoreX0, CoreX1) x
	// [CoreY0, CoreY1). Cores partition the full grid exactly.
	CoreX0, CoreY0, CoreX1, CoreY1 int

	// Window origin on the full grid; the window spans WindowPx pixels
	// from it in each axis.
	WinX0, WinY0 int

	// Layout is the window's clipped geometry in window-local nm
	// coordinates (SizeNM = WindowNM).
	Layout *geom.Layout
}

// Plan is a full-layout tiling: a grid of uniform halo-padded windows.
type Plan struct {
	Layout  *geom.Layout // the full layout being sharded
	PixelNM float64

	CoreNM   float64 // core tile pitch (multiple of PixelNM)
	HaloNM   float64 // effective halo after power-of-two rounding
	WindowNM float64 // CoreNM + 2*HaloNM (as rounded)

	// The Geometry the plan was built from.
	CorePx, HaloPx, WindowPx, FullPx int

	Cols, Rows int
	Tiles      []Tile
}

// Geometry is the pixel arithmetic of a Plan: what NewPlan derives from
// its four numbers before it clips a window. It costs no allocation, so
// the admission gate (mosaic.Admit) computes it to refuse a request whose
// plan NewPlan would refuse.
type Geometry struct {
	CorePx   int // core pitch, at most FullPx
	HaloPx   int // effective halo (left/bottom side) after power-of-two rounding
	WindowPx int // window grid size, a power of two that fits one frame
	FullPx   int // full-layout raster size (layout SizeNM / PixelNM)
}

// NewGeometry validates layout and sizes its tiling: core tiles of pitch
// coreNM (rounded to the pixel grid) with at least haloNM of padding, the
// padded window rounded up to the next power-of-two pixel count (the
// optics/FFT grid constraint), which only ever enlarges the halo. The
// layout must be a whole number of pixels; layout, halo and window must
// fit the rasters of internal/frame. A refusal is an *ilt.ConfigError
// naming the library field the number came from.
func NewGeometry(layout *geom.Layout, pixelNM, coreNM, haloNM float64) (Geometry, error) {
	refuse := func(field, format string, args ...any) (Geometry, error) {
		return Geometry{}, &ilt.ConfigError{Field: field, Reason: fmt.Sprintf(format, args...)}
	}
	if err := layout.Validate(); err != nil {
		return refuse("Layout", "%v", err)
	}
	// Every bound is written so that a NaN fails it.
	if !(pixelNM > 0) {
		return refuse("OpticsConfig.PixelNM", "must be positive, got %g", pixelNM)
	}
	if !(coreNM > 0) {
		return refuse("TileOptions.TileNM", "core tile size must be positive, got %g", coreNM)
	}
	if !(haloNM >= 0) {
		return refuse("TileOptions.HaloNM", "must be >= 0, got %g", haloNM)
	}
	// Sizes are bounded as floats first: converting an out-of-range float
	// to int is undefined, and nextPow2 and NewPlan's tile loop never end
	// on what it yields.
	if !(layout.SizeNM/pixelNM <= frame.MaxFieldDim) {
		return refuse("Layout.SizeNM", "%g nm at %g nm pixels exceeds the %d px raster bound", layout.SizeNM, pixelNM, frame.MaxFieldDim)
	}
	if !(haloNM/pixelNM <= frame.MaxFieldDim) {
		return refuse("TileOptions.HaloNM", "%g nm at %g nm pixels exceeds the %d px raster bound", haloNM, pixelNM, frame.MaxFieldDim)
	}
	fullPx := int(math.Round(layout.SizeNM / pixelNM))
	if fullPx < 1 || math.Abs(float64(fullPx)*pixelNM-layout.SizeNM) > 1e-6 {
		return refuse("Layout.SizeNM", "%g nm is not a whole number of %g nm pixels (a tile pitch, or a grid, that divides the layout gives one)", layout.SizeNM, pixelNM)
	}
	corePx := fullPx // a pitch the layout fits inside leaves it whole
	if coreNM < layout.SizeNM {
		corePx = int(math.Round(coreNM / pixelNM))
	}
	if corePx < 1 {
		return refuse("TileOptions.TileNM", "core tile %g nm is smaller than one %g nm pixel", coreNM, pixelNM)
	}
	haloMinPx := int(math.Ceil(haloNM/pixelNM - 1e-9))
	windowPx := nextPow2(corePx + 2*haloMinPx)
	if !frame.SquareFits(windowPx) {
		return refuse("TileOptions.TileNM,TileOptions.HaloNM", "a %d px window (core %g nm + 2 x halo %g nm at %g nm pixels) does not fit a %d-byte frame", windowPx, coreNM, haloNM, pixelNM, frame.MaxPayload)
	}
	return Geometry{CorePx: corePx, HaloPx: (windowPx - corePx) / 2, WindowPx: windowPx, FullPx: fullPx}, nil
}

// NewPlan decomposes layout into the windows of NewGeometry, each holding
// the layout's geometry clipped to it.
func NewPlan(layout *geom.Layout, pixelNM, coreNM, haloNM float64) (*Plan, error) {
	g, err := NewGeometry(layout, pixelNM, coreNM, haloNM)
	if err != nil {
		return nil, err
	}
	corePx, haloPx, fullPx := g.CorePx, g.HaloPx, g.FullPx
	p := &Plan{
		Layout:   layout,
		PixelNM:  pixelNM,
		CoreNM:   float64(corePx) * pixelNM,
		HaloNM:   float64(haloPx) * pixelNM,
		WindowNM: float64(g.WindowPx) * pixelNM,
		CorePx:   corePx,
		HaloPx:   haloPx,
		WindowPx: g.WindowPx,
		FullPx:   fullPx,
	}
	p.Cols = (fullPx + corePx - 1) / corePx
	p.Rows = p.Cols
	for r := 0; r < p.Rows; r++ {
		for c := 0; c < p.Cols; c++ {
			t := Tile{
				Index:  r*p.Cols + c,
				Col:    c,
				Row:    r,
				CoreX0: c * corePx,
				CoreY0: r * corePx,
				CoreX1: min(c*corePx+corePx, fullPx),
				CoreY1: min(r*corePx+corePx, fullPx),
				WinX0:  c*corePx - haloPx,
				WinY0:  r*corePx - haloPx,
			}
			t.Layout = layout.Window(fmt.Sprintf("%s_t%dx%d", layout.Name, c, r), p.windowRect(&t))
			p.Tiles = append(p.Tiles, t)
		}
	}
	return p, nil
}

// WindowOptics returns the imaging configuration of one padded window:
// the base configuration with the grid swapped for the window grid. All
// windows share it, so the SOCS kernel stacks are built once and shared
// read-only across tile workers via the optics cache.
func (p *Plan) WindowOptics(base optics.Config) optics.Config {
	base.GridSize = p.WindowPx
	base.PixelNM = p.PixelNM
	return base
}

// windowRect returns tile t's window in full-layout nm coordinates.
func (p *Plan) windowRect(t *Tile) geom.Rect {
	return geom.Rect{
		X: float64(t.WinX0) * p.PixelNM,
		Y: float64(t.WinY0) * p.PixelNM,
		W: p.WindowNM,
		H: p.WindowNM,
	}
}

// splitSamples assigns full-layout EPE samples to every window that
// contains them (halo overlap means a sample near a seam lands in several
// windows) and translates them into window-local coordinates. Using the
// full-layout sample set — rather than sampling each window's clipped
// geometry — keeps artificial cut edges at window borders from spawning
// spurious EPE constraints.
func (p *Plan) splitSamples(samples []geom.Sample) [][]geom.Sample {
	out := make([][]geom.Sample, len(p.Tiles))
	for i := range p.Tiles {
		t := &p.Tiles[i]
		w := p.windowRect(t)
		for _, s := range samples {
			if s.Pt.X < w.X || s.Pt.X >= w.X+w.W || s.Pt.Y < w.Y || s.Pt.Y >= w.Y+w.H {
				continue
			}
			ls := s
			ls.Pt.X -= w.X
			ls.Pt.Y -= w.Y
			out[i] = append(out[i], ls)
		}
	}
	return out
}

// nextPow2 returns the smallest power of two >= n (minimum 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
