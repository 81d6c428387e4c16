package tile

import (
	"context"
	"fmt"
	"math"

	"mosaic/internal/grid"
	"mosaic/internal/ilt"
	"mosaic/internal/metrics"
	"mosaic/internal/obs"
	"mosaic/internal/par"
	"mosaic/internal/sim"
)

// Stitch reassembles per-tile results into a full-layout mask. Halos are
// discarded except for a raised-cosine cross-fade of the continuous masks
// over a band of width seamNM centered on each interior core boundary:
// complementary cosine ramps sum to one, so the blend interpolates the two
// tiles' solutions instead of cutting hard between them, and binarization
// cannot leave a seam artifact. seamNM is clamped so the band fits inside
// the halo overlap and never spans a whole core; the clamped value is
// returned. A zero band degenerates to a hard cut at core boundaries.
func (p *Plan) Stitch(results []*ilt.Result, seamNM float64) (mask, gray *grid.Field, usedSeamNM float64) {
	if len(results) != len(p.Tiles) {
		panic(fmt.Sprintf("tile: stitching %d results over %d tiles", len(results), len(p.Tiles)))
	}
	seamPx := seamNM / p.PixelNM
	if maxSeam := float64(min(2*p.HaloPx, p.CorePx)); seamPx > maxSeam {
		seamPx = maxSeam
	}
	if seamPx < 0 {
		seamPx = 0
	}

	// Per-axis tile weights and the span each is nonzero over, within the
	// tile's window; rows and columns share the profile (the plan is square
	// and the core pitch is common).
	wAxis := make([][]float64, p.Cols)
	span := make([][2]int, p.Cols)
	for c := range wAxis {
		wAxis[c] = p.axisWeights(c, seamPx)
		span[c] = p.weightSpan(c, wAxis[c])
	}

	gray = grid.New(p.FullPx, p.FullPx)
	for i := range p.Tiles {
		t := &p.Tiles[i]
		g := results[i].MaskGray
		x0, x1 := span[t.Col][0], span[t.Col][1]
		wx, wy := wAxis[t.Col][x0:x1], wAxis[t.Row]
		for y := span[t.Row][0]; y < span[t.Row][1]; y++ {
			vy := wy[y]
			src := g.Row(y - t.WinY0)[x0-t.WinX0 : x1-t.WinX0]
			dst := gray.Row(y)[x0:x1]
			for x, vx := range wx {
				dst[x] += vx * vy * src[x]
			}
		}
	}
	return gray.Threshold(0.5), gray, seamPx * p.PixelNM
}

// axisWeights returns tile column (or row) c's blend weight at every
// full-grid pixel center along one axis: one inside the core, zero beyond
// the seam bands, a raised-cosine ramp across each interior boundary.
// Layout edges get no ramp — there is no neighbor to fade into.
func (p *Plan) axisWeights(c int, seamPx float64) []float64 {
	x0 := float64(c * p.CorePx)
	x1 := float64(min(c*p.CorePx+p.CorePx, p.FullPx))
	h := seamPx / 2
	w := make([]float64, p.FullPx)
	for x := range w {
		u := float64(x) + 0.5
		wl, wr := 1.0, 1.0
		if c > 0 {
			wl = rampUp(u, x0, h)
		}
		if c < p.Cols-1 {
			wr = 1 - rampUp(u, x1, h)
		}
		w[x] = wl * wr
	}
	return w
}

// weightSpan returns the full-grid pixels [lo, hi) at which tile column
// (or row) c contributes: its window, narrowed to where w is nonzero. The
// ramps rise and fall monotonically, so the nonzero weights are one run
// and the span walks exactly the pixels a per-pixel zero test would keep.
func (p *Plan) weightSpan(c int, w []float64) [2]int {
	lo := max(0, c*p.CorePx-p.HaloPx)
	hi := min(p.FullPx, c*p.CorePx-p.HaloPx+p.WindowPx)
	for lo < hi && w[lo] == 0 {
		lo++
	}
	for hi > lo && w[hi-1] == 0 {
		hi--
	}
	return [2]int{lo, hi}
}

// rampUp is the raised-cosine step centered on b with half-width h: zero
// below b-h, one above b+h, 0.5*(1-cos(pi*t)) across the band. h = 0
// degenerates to a hard step at b (pixel centers never sit exactly on the
// integer boundary).
func rampUp(u, b, h float64) float64 {
	if h <= 0 {
		if u >= b {
			return 1
		}
		return 0
	}
	t := (u - (b - h)) / (2 * h)
	switch {
	case t <= 0:
		return 0
	case t >= 1:
		return 1
	}
	return 0.5 * (1 - math.Cos(math.Pi*t))
}

// windowCrop extracts tile t's padded window from a full-grid field into a
// pooled buffer (release with grid.Put). Halo overhang beyond the layout
// reads as zero.
func (p *Plan) windowCrop(f *grid.Field, t *Tile) *grid.Field {
	w := grid.Get(p.WindowPx, p.WindowPx).Zero()
	x0 := max(0, t.WinX0)
	x1 := min(p.FullPx, t.WinX0+p.WindowPx)
	for wy := 0; wy < p.WindowPx; wy++ {
		gy := t.WinY0 + wy
		if gy < 0 || gy >= p.FullPx || x0 >= x1 {
			continue
		}
		copy(w.Row(wy)[x0-t.WinX0:x1-t.WinX0], f.Row(gy)[x0:x1])
	}
	return w
}

// AerialPlanes computes the full-layout aerial image of a full-grid mask
// at every focus plane of corners (sim.FocusGroups order) by tiled
// simulation: each padded window is imaged once, for all of its planes,
// with the full SOCS stack (sim.Simulator.AerialPlanes), and only its core
// is kept. The halo absorbs both the optical interaction with neighboring
// tiles and the FFT's cyclic wrap-around, so the cores assemble into the
// open-boundary full-layout image. Cancellation is honored before each
// window's imaging. The images come from the workspace pool.
func (p *Plan) AerialPlanes(ctx context.Context, ws *sim.Simulator, mask *grid.Field, corners []sim.Corner) ([]*grid.Field, error) {
	if err := p.checkWindowSim(ws); err != nil {
		return nil, err
	}
	if mask.W != p.FullPx || mask.H != p.FullPx {
		return nil, fmt.Errorf("tile: mask %dx%d does not match the %d px full grid", mask.W, mask.H, p.FullPx)
	}
	if err := ws.BuildPlanes(corners); err != nil {
		return nil, err
	}
	// Cores partition the full grid, so every pixel of every image is
	// written, and concurrent writes are disjoint.
	outs := make([]*grid.Field, len(sim.FocusGroups(corners)))
	for i := range outs {
		outs[i] = grid.Get(p.FullPx, p.FullPx)
	}
	errs := make([]error, len(p.Tiles))
	par.For(len(p.Tiles), func(i int) {
		if err := ctx.Err(); err != nil {
			errs[i] = fmt.Errorf("tile: evaluation canceled before window %d: %w", i, err)
			return
		}
		t := &p.Tiles[i]
		crop := p.windowCrop(mask, t)
		imgs, err := ws.AerialPlanes(crop, corners)
		grid.Put(crop)
		if err != nil {
			errs[i] = err
			return
		}
		for pl, img := range imgs {
			for gy := t.CoreY0; gy < t.CoreY1; gy++ {
				src := img.Row(gy - t.WinY0)
				copy(outs[pl].Row(gy)[t.CoreX0:t.CoreX1], src[t.CoreX0-t.WinX0:t.CoreX1-t.WinX0])
			}
			grid.Put(img)
		}
	})
	for _, err := range errs {
		if err != nil {
			for _, out := range outs {
				grid.Put(out)
			}
			return nil, err
		}
	}
	return outs, nil
}

// Evaluate produces the full-layout contest metrics for a stitched mask:
// the standard evaluation pipeline with the aerial images formed by tiled
// simulation, so EPE, PV band, and shape terms report on the whole stitched
// result rather than per tile.
func (p *Plan) Evaluate(ws *sim.Simulator, mask *grid.Field, mp metrics.Params, runtimeSec float64) (*metrics.Report, error) {
	return p.EvaluateCtx(context.Background(), ws, mask, mp, runtimeSec)
}

// EvaluateCtx is Evaluate under a context; cancellation is honored before
// each window's imaging.
func (p *Plan) EvaluateCtx(ctx context.Context, ws *sim.Simulator, mask *grid.Field, mp metrics.Params, runtimeSec float64) (*metrics.Report, error) {
	ctx, sp := obs.StartSpan(ctx, obs.TileEvaluate,
		obs.String("layout", p.Layout.Name), obs.Int("tiles", len(p.Tiles)))
	defer sp.End()
	planes := func(m *grid.Field, corners []sim.Corner) ([]*grid.Field, error) {
		return p.AerialPlanes(ctx, ws, m, corners)
	}
	return metrics.EvaluateWithCtx(ctx, planes, ws.Resist, p.PixelNM, mask, p.Layout, mp, runtimeSec)
}
