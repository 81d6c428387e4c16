package tile

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"mosaic/internal/geom"
	"mosaic/internal/grid"
	"mosaic/internal/ilt"
	"mosaic/internal/metrics"
	"mosaic/internal/optics"
	"mosaic/internal/resist"
	"mosaic/internal/sim"
)

// bareRun is the bare optimizer on a clip s's grid covers — ilt.New and
// RunRasterCtx on the clip's raster and EPE samples — the reference a
// one-window plan reproduces.
func bareRun(t *testing.T, s *sim.Simulator, cfg ilt.Config, l *geom.Layout) *ilt.Result {
	t.Helper()
	o, err := ilt.New(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	target := l.Rasterize(s.Cfg.GridSize, s.Cfg.PixelNM)
	res, err := o.RunRasterCtx(context.Background(), l, target, l.SamplePoints(metrics.DefaultParams().EPESampleNM))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// testLayout is a 1024 nm clip with features crossing both interior seams
// of a 2x2 tiling at 512 nm pitch, plus isolated features per quadrant.
func testLayout() *geom.Layout {
	l := &geom.Layout{
		Name:   "tile-test",
		SizeNM: 1024,
		Polys: []geom.Polygon{
			geom.Rect{X: 300, Y: 470, W: 424, H: 84}.Polygon(),  // bar across the x=512 seam
			geom.Rect{X: 470, Y: 120, W: 84, H: 300}.Polygon(),  // bar across the y=512 seam (lower)
			geom.Rect{X: 100, Y: 100, W: 160, H: 90}.Polygon(),  // SW quadrant
			geom.Rect{X: 700, Y: 760, W: 180, H: 96}.Polygon(),  // NE quadrant
			geom.Rect{X: 680, Y: 180, W: 110, H: 110}.Polygon(), // SE quadrant
		},
	}
	if err := l.Validate(); err != nil {
		panic(err)
	}
	return l
}

// testOptics is the shared imaging configuration: 8 nm pixels keep the
// grids small enough for -race runs.
func testOptics(gridSize int) optics.Config {
	c := optics.Default()
	c.GridSize = gridSize
	c.PixelNM = 8
	c.Kernels = 6
	return c
}

func testSim(t *testing.T, gridSize int) *sim.Simulator {
	t.Helper()
	s, err := sim.New(testOptics(gridSize), resist.Default())
	if err != nil {
		t.Fatal(err)
	}
	thr, err := s.CalibrateThreshold()
	if err != nil {
		t.Fatal(err)
	}
	s.Resist.Threshold = thr
	return s
}

// testConfig is a cheap optimizer configuration: six iterations of
// single-kernel gradients from the bare target.
func testConfig() ilt.Config {
	cfg := ilt.DefaultConfig(ilt.ModeFast)
	cfg.MaxIter = 6
	cfg.GradKernels = 1
	cfg.SRAFInit = false
	return cfg
}

func TestNewPlanGeometry(t *testing.T) {
	l := testLayout()
	halo := DefaultHaloNM(testOptics(64))
	p, err := NewPlan(l, 8, 512, halo)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cols != 2 || p.Rows != 2 || len(p.Tiles) != 4 {
		t.Fatalf("want a 2x2 plan, got %dx%d with %d tiles", p.Cols, p.Rows, len(p.Tiles))
	}
	if p.FullPx != 128 || p.CorePx != 64 {
		t.Fatalf("full=%d core=%d px, want 128/64", p.FullPx, p.CorePx)
	}
	if p.WindowPx&(p.WindowPx-1) != 0 {
		t.Fatalf("window %d px is not a power of two", p.WindowPx)
	}
	if p.HaloNM < halo {
		t.Fatalf("effective halo %g nm below the requested %g nm floor", p.HaloNM, halo)
	}
	// Cores must partition the full grid exactly.
	covered := make([]int, p.FullPx*p.FullPx)
	for i := range p.Tiles {
		tl := &p.Tiles[i]
		if tl.Index != i {
			t.Fatalf("tile %d has index %d", i, tl.Index)
		}
		if tl.Layout.SizeNM != p.WindowNM {
			t.Fatalf("tile %d window layout spans %g nm, want %g", i, tl.Layout.SizeNM, p.WindowNM)
		}
		for y := tl.CoreY0; y < tl.CoreY1; y++ {
			for x := tl.CoreX0; x < tl.CoreX1; x++ {
				covered[y*p.FullPx+x]++
			}
		}
	}
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("pixel %d covered by %d cores", i, c)
		}
	}

	// A truncated plan: 600 nm cores over 1024 nm leave a short last
	// row/column but must still partition the grid.
	p2, err := NewPlan(l, 8, 600, halo)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Cols != 2 {
		t.Fatalf("600 nm cores over 1024 nm: want 2 columns, got %d", p2.Cols)
	}
	last := &p2.Tiles[len(p2.Tiles)-1]
	if last.CoreX1 != p2.FullPx || last.CoreY1 != p2.FullPx {
		t.Fatalf("last core ends at (%d,%d), want (%d,%d)", last.CoreX1, last.CoreY1, p2.FullPx, p2.FullPx)
	}
}

func TestSplitSamples(t *testing.T) {
	l := testLayout()
	p, err := NewPlan(l, 8, 512, 143)
	if err != nil {
		t.Fatal(err)
	}
	samples := l.SamplePoints(40)
	split := p.splitSamples(samples)
	// Every sample lands in at least one window; near-seam samples land in
	// several. Translated positions must map back to the original.
	total := 0
	for i, ss := range split {
		w := p.windowRect(&p.Tiles[i])
		total += len(ss)
		for _, s := range ss {
			gx, gy := s.Pt.X+w.X, s.Pt.Y+w.Y
			found := false
			for _, orig := range samples {
				if orig.Pt.X == gx && orig.Pt.Y == gy {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("tile %d sample (%g,%g) maps to (%g,%g), not an original sample", i, s.Pt.X, s.Pt.Y, gx, gy)
			}
		}
	}
	if total <= len(samples) {
		t.Fatalf("halo overlap should duplicate near-seam samples: %d split vs %d original", total, len(samples))
	}
}

// TestStitchPartitionOfUnity fabricates constant per-tile masks and checks
// the cross-fade weights sum to one everywhere: all-ones tiles stitch to an
// all-ones layout, and distinct constants stay within their convex hull.
func TestStitchPartitionOfUnity(t *testing.T) {
	p, err := NewPlan(testLayout(), 8, 512, 143)
	if err != nil {
		t.Fatal(err)
	}
	ones := make([]*ilt.Result, len(p.Tiles))
	vals := make([]*ilt.Result, len(p.Tiles))
	for i := range ones {
		o := grid.New(p.WindowPx, p.WindowPx).Fill(1)
		ones[i] = &ilt.Result{Mask: o, MaskGray: o}
		v := grid.New(p.WindowPx, p.WindowPx).Fill(float64(i + 1))
		vals[i] = &ilt.Result{Mask: v, MaskGray: v}
	}
	for _, seam := range []float64{0, 100, 1e9} {
		_, gray, used := p.Stitch(ones, seam)
		if used > math.Min(2*p.HaloNM, p.CoreNM) {
			t.Fatalf("seam %g nm exceeds the halo overlap", used)
		}
		for i, v := range gray.Data {
			if math.Abs(v-1) > 1e-12 {
				t.Fatalf("seam %g: weights at pixel %d sum to %g, want 1", seam, i, v)
			}
		}
		_, gv, _ := p.Stitch(vals, seam)
		lo, hi := gv.MinMax()
		if lo < 1-1e-12 || hi > float64(len(vals))+1e-12 {
			t.Fatalf("seam %g: blended values [%g,%g] escape the tile value range", seam, lo, hi)
		}
	}
	// Hard cut: each core holds exactly its own tile's constant.
	_, gv, used := p.Stitch(vals, -1)
	if used != 0 {
		t.Fatalf("negative seam should disable blending, got %g nm", used)
	}
	for i := range p.Tiles {
		tl := &p.Tiles[i]
		want := float64(i + 1)
		if got := gv.At(tl.CoreX0, tl.CoreY0); got != want {
			t.Fatalf("tile %d core corner = %g, want %g", i, got, want)
		}
	}
}

// stitchReference is Stitch's blend as it was before each tile walked
// only its weights' nonzero span: every full-grid pixel, tested against
// the weights and the window bounds one by one.
func stitchReference(p *Plan, results []*ilt.Result, seamPx float64) *grid.Field {
	wAxis := make([][]float64, p.Cols)
	for c := range wAxis {
		wAxis[c] = p.axisWeights(c, seamPx)
	}
	gray := grid.New(p.FullPx, p.FullPx)
	for i := range p.Tiles {
		t := &p.Tiles[i]
		g := results[i].MaskGray
		wx, wy := wAxis[t.Col], wAxis[t.Row]
		for y := 0; y < p.FullPx; y++ {
			vy := wy[y]
			if vy == 0 {
				continue
			}
			ly := y - t.WinY0
			if ly < 0 || ly >= p.WindowPx {
				continue
			}
			src := g.Row(ly)
			dst := gray.Row(y)
			for x := 0; x < p.FullPx; x++ {
				vx := wx[x]
				if vx == 0 {
					continue
				}
				lx := x - t.WinX0
				if lx < 0 || lx >= p.WindowPx {
					continue
				}
				dst[x] += vx * vy * src[lx]
			}
		}
	}
	return gray
}

// TestStitchMatchesReference pins Stitch bit for bit to the per-pixel loop
// it replaced, on random plans from 1x1 to 3x3 (a last core cut short
// included) at seams from none to past the clamp.
func TestStitchMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(49))
	for trial := 0; trial < 60; trial++ {
		const px = 8
		cols := 1 + trial%3
		corePx := 8 + r.Intn(25)
		fullPx := (cols-1)*corePx + 1 + r.Intn(corePx)
		l := &geom.Layout{Name: "stitch", SizeNM: float64(fullPx * px)}
		p, err := NewPlan(l, px, float64(corePx*px), float64(r.Intn(20)*px))
		if err != nil {
			t.Fatal(err)
		}
		if p.Cols != cols && fullPx > corePx {
			t.Fatalf("trial %d: want %d columns, got %d", trial, cols, p.Cols)
		}
		results := make([]*ilt.Result, len(p.Tiles))
		for i := range results {
			g := grid.New(p.WindowPx, p.WindowPx)
			for j := range g.Data {
				g.Data[j] = r.Float64()
			}
			results[i] = &ilt.Result{MaskGray: g}
		}
		maxSeam := float64(min(2*p.HaloPx, p.CorePx))
		for _, seamPx := range []float64{0, r.Float64() * maxSeam, maxSeam, maxSeam + 5} {
			_, gray, used := p.Stitch(results, seamPx*px)
			want := stitchReference(p, results, used/px)
			for i, v := range gray.Data {
				if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
					t.Fatalf("trial %d (%dx%d tiles, core %d px, halo %d px, seam %g px): pixel %d = %v, the per-pixel loop gives %v",
						trial, p.Cols, p.Rows, p.CorePx, p.HaloPx, used/px, i, v, want.Data[i])
				}
			}
		}
	}
}

func TestOptimizeDeterministicAcrossWorkers(t *testing.T) {
	l := testLayout()
	p, err := NewPlan(l, 8, 512, DefaultHaloNM(testOptics(64)))
	if err != nil {
		t.Fatal(err)
	}
	ws := testSim(t, p.WindowPx)
	cfg := testConfig()

	var masks []*grid.Field
	for _, workers := range []int{1, 4} {
		var seen []int
		res, err := p.Optimize(context.Background(), ws, cfg, Options{
			Workers: workers,
			OnTile:  func(done, total int) { seen = append(seen, done) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Workers != workers {
			t.Fatalf("resolved %d workers, want %d", res.Workers, workers)
		}
		if len(res.Tiles) != len(p.Tiles) {
			t.Fatalf("%d tile results, want %d", len(res.Tiles), len(p.Tiles))
		}
		for i, tr := range res.Tiles {
			if tr == nil || tr.Mask == nil {
				t.Fatalf("tile %d has no result", i)
			}
		}
		if len(seen) != len(p.Tiles) || seen[len(seen)-1] != len(p.Tiles) {
			t.Fatalf("OnTile progression %v", seen)
		}
		if res.Mask.W != p.FullPx || res.Mask.H != p.FullPx {
			t.Fatalf("stitched mask %dx%d, want %d", res.Mask.W, res.Mask.H, p.FullPx)
		}
		masks = append(masks, res.Mask)
	}
	for i, v := range masks[0].Data {
		if v != masks[1].Data[i] {
			t.Fatal("stitched masks differ between 1 and 4 workers")
		}
	}
}

func TestOptimizeCancelAndFailFast(t *testing.T) {
	l := testLayout()
	p, err := NewPlan(l, 8, 512, DefaultHaloNM(testOptics(64)))
	if err != nil {
		t.Fatal(err)
	}
	ws := testSim(t, p.WindowPx)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Optimize(ctx, ws, testConfig(), Options{}); err == nil {
		t.Fatal("canceled context did not abort the run")
	}

	bad := testConfig()
	bad.Gamma = 3 // rejected by ilt.New inside the first non-empty tile
	if _, err := p.Optimize(context.Background(), ws, bad, Options{Workers: 2}); err == nil {
		t.Fatal("invalid per-tile config did not fail the run")
	}

	wrong := testSim(t, 2*p.WindowPx)
	if _, err := p.Optimize(context.Background(), wrong, testConfig(), Options{}); err == nil {
		t.Fatal("mismatched window simulator was not rejected")
	}
}

func TestEmptyTileShortCircuits(t *testing.T) {
	// One feature confined to the SW quadrant: the other three tiles have
	// no geometry and must come back as dark masks with zero iterations.
	l := &geom.Layout{Name: "sparse", SizeNM: 1024, Polys: []geom.Polygon{
		geom.Rect{X: 100, Y: 100, W: 160, H: 96}.Polygon(),
	}}
	p, err := NewPlan(l, 8, 512, DefaultHaloNM(testOptics(64)))
	if err != nil {
		t.Fatal(err)
	}
	ws := testSim(t, p.WindowPx)
	res, err := p.Optimize(context.Background(), ws, testConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	empties := 0
	for i, tr := range res.Tiles {
		if len(p.Tiles[i].Layout.Polys) > 0 {
			continue
		}
		empties++
		if tr.Iterations != 0 {
			t.Fatalf("empty tile %d ran %d iterations", i, tr.Iterations)
		}
		if lo, hi := tr.Mask.MinMax(); lo != 0 || hi != 0 {
			t.Fatalf("empty tile %d mask is not dark: [%g,%g]", i, lo, hi)
		}
	}
	if empties == 0 {
		t.Fatal("test layout produced no empty tiles")
	}
}

// TestSingleTileBitIdentical pins the degenerate decomposition: a plan
// whose single window equals the untiled grid must reproduce the untiled
// optimizer's mask bit for bit.
func TestSingleTileBitIdentical(t *testing.T) {
	l := &geom.Layout{Name: "clip", SizeNM: 512, Polys: []geom.Polygon{
		geom.Rect{X: 96, Y: 80, W: 120, H: 88}.Polygon(),
		geom.Rect{X: 280, Y: 260, W: 96, H: 140}.Polygon(),
	}}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	s := testSim(t, 64)
	cfg := testConfig()

	p, err := NewPlan(l, 8, l.SizeNM, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Tiles) != 1 || p.WindowPx != 64 || p.HaloPx != 0 {
		t.Fatalf("plan is not the degenerate single window: tiles=%d window=%d halo=%d",
			len(p.Tiles), p.WindowPx, p.HaloPx)
	}
	tiled, err := p.Optimize(context.Background(), s, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}

	ref := bareRun(t, s, cfg, l)
	for i, v := range ref.Mask.Data {
		if tiled.Mask.Data[i] != v {
			t.Fatalf("single-tile mask differs from untiled at pixel %d", i)
		}
	}
	for i, v := range ref.MaskGray.Data {
		if tiled.MaskGray.Data[i] != v {
			t.Fatalf("single-tile gray mask differs from untiled at pixel %d", i)
		}
	}
}

// seamEPE sums the capped EPE distance over samples within bandNM of an
// interior seam line — the stitching quality signal.
func seamEPE(rs []metrics.EPEResult, seams []float64, bandNM, capNM float64) float64 {
	s := 0.0
	for _, r := range rs {
		near := false
		for _, seam := range seams {
			if math.Abs(r.Sample.Pt.X-seam) <= bandNM || math.Abs(r.Sample.Pt.Y-seam) <= bandNM {
				near = true
				break
			}
		}
		if !near {
			continue
		}
		s += math.Min(r.EPENM, capNM)
	}
	return s
}

// TestHaloSufficiency is the stitching-fidelity acceptance test: with the
// default λ/NA halo, a 2x2 tiled run's full-layout EPE-violation count
// matches the untiled reference within ±1 and the seam-band EPE stays
// comparable, while a zero-halo decomposition (windows cut hard at core
// boundaries, so each tile optimizes against cyclically wrapped geometry)
// measurably degrades the seam.
func TestHaloSufficiency(t *testing.T) {
	l := testLayout()
	cfg := testConfig()
	ctx := context.Background()

	// Untiled reference: the whole 1024 nm layout on one 128 px grid.
	full := testSim(t, 128)
	ref := bareRun(t, full, cfg, l)
	mp := metrics.DefaultParams()
	refRep, err := metrics.Evaluate(full, ref.Mask, l, mp, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Good halo: the default ambit, rounded up by the power-of-two window
	// to 256 nm. The window grid equals the full grid, so the same
	// simulator serves both paths.
	goodPlan, err := NewPlan(l, 8, 512, DefaultHaloNM(full.Cfg))
	if err != nil {
		t.Fatal(err)
	}
	if goodPlan.WindowPx != 128 {
		t.Fatalf("good plan window %d px, expected 128", goodPlan.WindowPx)
	}
	good, err := goodPlan.Optimize(ctx, full, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	goodRep, err := metrics.Evaluate(full, good.Mask, l, mp, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Undersized halo: zero guard band, 64 px windows equal to the cores.
	badPlan, err := NewPlan(l, 8, 512, 0)
	if err != nil {
		t.Fatal(err)
	}
	if badPlan.HaloPx != 0 || badPlan.WindowPx != 64 {
		t.Fatalf("bad plan is not the zero-halo case: halo=%d window=%d", badPlan.HaloPx, badPlan.WindowPx)
	}
	badWs := testSim(t, 64)
	badWs.Resist.Threshold = full.Resist.Threshold // same resist for comparability
	bad, err := badPlan.Optimize(ctx, badWs, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	badRep, err := metrics.Evaluate(full, bad.Mask, l, mp, 0)
	if err != nil {
		t.Fatal(err)
	}

	if d := goodRep.EPEViolations - refRep.EPEViolations; d > 1 || d < -1 {
		t.Fatalf("sufficient-halo tiling changed EPE violations by %d (untiled %d, tiled %d)",
			d, refRep.EPEViolations, goodRep.EPEViolations)
	}
	seams := []float64{512}
	const band = 150
	gs := seamEPE(goodRep.EPEResults, seams, band, mp.EPESearchNM)
	bs := seamEPE(badRep.EPEResults, seams, band, mp.EPESearchNM)
	t.Logf("seam EPE (capped sum, nm): untiled=%.1f good=%.1f bad=%.1f",
		seamEPE(refRep.EPEResults, seams, band, mp.EPESearchNM), gs, bs)
	if bs <= gs {
		t.Fatalf("zero halo did not degrade the seam: good=%.1f nm, bad=%.1f nm", gs, bs)
	}
}

// TestNewPlanBoundsItsRasters: sizes no raster codec in the tree can carry
// are refused before anything is allocated or looped over. The first case
// used to panic in the kernel build (a 2^38 px window), the second never
// left the tile loop (6.5e13 px across).
func TestNewPlanBoundsItsRasters(t *testing.T) {
	l := testLayout()
	for _, tc := range []struct {
		name                    string
		pixelNM, coreNM, haloNM float64
	}{
		{"halo wider than any raster", 8, 512, 1e12},
		{"layout wider than any raster", 1e-9 / 64, 1e-9, 0},
		{"window beyond one frame", 8, 512, 8 * 8192},
		{"halo overflowing int", 8, 512, 1e300},
	} {
		done := make(chan error, 1)
		go func() {
			_, err := NewPlan(l, tc.pixelNM, tc.coreNM, tc.haloNM)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s: NewPlan accepted it", tc.name)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: NewPlan is still running", tc.name)
		}
	}
}

// TestAerialPlanesMatchesPerCornerWindows pins a 2x2 plan's one-call
// imaging — each window imaged once for every focus plane — to the
// per-corner assembly it replaced, bit for bit: every window imaged by
// sim.Simulator.Aerial at each plane's lead corner, its core copied out.
func TestAerialPlanesMatchesPerCornerWindows(t *testing.T) {
	l := testLayout()
	ws := testSim(t, 128)
	p, err := NewPlan(l, 8, 512, DefaultHaloNM(ws.Cfg))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Tiles) != 4 || p.WindowPx != 128 {
		t.Fatalf("plan has %d tiles of %d px, want 4 of 128", len(p.Tiles), p.WindowPx)
	}
	mask := l.Rasterize(p.FullPx, p.PixelNM)
	corners := sim.ProcessCorners(25, 0.02)
	got, err := p.AerialPlanes(context.Background(), ws, mask, corners)
	if err != nil {
		t.Fatal(err)
	}
	planes := sim.FocusGroups(corners)
	if len(got) != len(planes) {
		t.Fatalf("%d images for %d planes", len(got), len(planes))
	}
	for pl, g := range planes {
		want := grid.New(p.FullPx, p.FullPx)
		for i := range p.Tiles {
			tl := &p.Tiles[i]
			img, err := ws.Aerial(p.windowCrop(mask, tl), g.Lead)
			if err != nil {
				t.Fatal(err)
			}
			for gy := tl.CoreY0; gy < tl.CoreY1; gy++ {
				copy(want.Row(gy)[tl.CoreX0:tl.CoreX1], img.Row(gy - tl.WinY0)[tl.CoreX0-tl.WinX0:tl.CoreX1-tl.WinX0])
			}
		}
		for i, v := range want.Data {
			if math.Float64bits(got[pl].Data[i]) != math.Float64bits(v) {
				t.Fatalf("plane %s: pixel %d is %v, the per-corner windows give %v", g.Lead.Name, i, got[pl].Data[i], v)
			}
		}
	}
}

// TestAerialPlanesHonorsCancellation: a plan's imaging checks its context
// before each window, so a canceled evaluation images none.
func TestAerialPlanesHonorsCancellation(t *testing.T) {
	l := testLayout()
	ws := testSim(t, 128)
	p, err := NewPlan(l, 8, 512, DefaultHaloNM(ws.Cfg))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	mask := l.Rasterize(p.FullPx, p.PixelNM)
	if _, err := p.AerialPlanes(ctx, ws, mask, sim.ProcessCorners(25, 0.02)); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled plan imaging returned %v, want context.Canceled", err)
	}
}
