package cache

import (
	"testing"

	"mosaic/internal/frame"
	"mosaic/internal/geom"
	"mosaic/internal/grid"
	"mosaic/internal/ilt"
	"mosaic/internal/metrics"
	"mosaic/internal/optics"
	"mosaic/internal/resist"
	"mosaic/internal/sim"
	"mosaic/internal/tile"
)

// digestReq builds a representative tile request and applies mut to it.
// The simulator is a bare struct: RequestKey only reads its configuration
// fields, never its kernels, so no forward model is built.
func digestReq(mut func(*tile.Request)) *tile.Request {
	oc := optics.Default()
	oc.GridSize = 64
	oc.PixelNM = 8
	oc.Kernels = 6
	req := &tile.Request{
		Plan: &tile.Plan{WindowPx: 64, PixelNM: 8},
		Tile: &tile.Tile{Layout: &geom.Layout{
			Name:   "layout_t0x0",
			SizeNM: 512,
			Polys: []geom.Polygon{
				geom.Rect{X: 100, Y: 100, W: 160, H: 90}.Polygon(),
				geom.Rect{X: 312, Y: 144, W: 56, H: 224}.Polygon(),
			},
		}},
		Sim: &sim.Simulator{Cfg: oc, Resist: resist.Default()},
		Cfg: ilt.DefaultConfig(ilt.ModeFast),
		Samples: []geom.Sample{
			{Pt: geom.Point{X: 100, Y: 145}, Horizontal: false, InwardX: 1},
			{Pt: geom.Point{X: 180, Y: 100}, Horizontal: true, InwardY: 1},
		},
	}
	if mut != nil {
		mut(req)
	}
	return req
}

// TestRequestKeyIgnoresPosition pins the translation-sharing property:
// everything that encodes where a tile sits in the full layout — the
// window layout's Name, the tile's plan coordinates — must not affect the
// key, so the same cell repeated across the layout shares one entry.
func TestRequestKeyIgnoresPosition(t *testing.T) {
	base := RequestKey(digestReq(nil))
	moved := RequestKey(digestReq(func(r *tile.Request) {
		r.Tile.Layout.Name = "layout_t7x3"
		r.Tile.Index = 24
		r.Tile.Col, r.Tile.Row = 7, 3
		r.Tile.WinX0, r.Tile.WinY0 = 3584, 1536
		r.Tile.CoreX0, r.Tile.CoreY0 = 3584, 1536
	}))
	if base != moved {
		t.Fatalf("tile position leaked into the digest:\n  %s\n  %s", base, moved)
	}
}

// TestRequestKeySensitivity checks that every class of bit-determining
// input changes the key: grid geometry, imaging, resist calibration,
// optimizer parameters, clipped polygons, and EPE samples.
func TestRequestKeySensitivity(t *testing.T) {
	base := RequestKey(digestReq(nil))
	cases := []struct {
		name string
		mut  func(*tile.Request)
	}{
		{"windowPx", func(r *tile.Request) { r.Plan.WindowPx = 128 }},
		{"pixelNM", func(r *tile.Request) { r.Plan.PixelNM = 4 }},
		{"opticsNA", func(r *tile.Request) { r.Sim.Cfg.NA += 0.05 }},
		{"opticsSigma", func(r *tile.Request) { r.Sim.Cfg.SigmaOut += 0.01 }},
		{"opticsKernels", func(r *tile.Request) { r.Sim.Cfg.Kernels++ }},
		{"resistThreshold", func(r *tile.Request) { r.Sim.Resist.Threshold += 1e-6 }},
		{"resistThetaZ", func(r *tile.Request) { r.Sim.Resist.ThetaZ += 1 }},
		{"mode", func(r *tile.Request) { r.Cfg.Mode = ilt.ModeExact }},
		{"maxIter", func(r *tile.Request) { r.Cfg.MaxIter++ }},
		{"defocus", func(r *tile.Request) { r.Cfg.DefocusNM += 5 }},
		{"srafInit", func(r *tile.Request) { r.Cfg.SRAFInit = !r.Cfg.SRAFInit }},
		{"gradKernels", func(r *tile.Request) { r.Cfg.GradKernels++ }},
		{"seedMask", func(r *tile.Request) {
			seed := grid.New(r.Plan.WindowPx, r.Plan.WindowPx)
			seed.Data[0] = 0.5
			r.Cfg.SeedMask = seed
		}},
		{"polyMoved", func(r *tile.Request) { r.Tile.Layout.Polys[0][0].X += 8 }},
		{"polyDropped", func(r *tile.Request) { r.Tile.Layout.Polys = r.Tile.Layout.Polys[:1] }},
		{"windowSize", func(r *tile.Request) { r.Tile.Layout.SizeNM = 1024 }},
		{"sampleMoved", func(r *tile.Request) { r.Samples[0].Pt.Y += 8 }},
		{"sampleAxis", func(r *tile.Request) { r.Samples[0].Horizontal = !r.Samples[0].Horizontal }},
		{"sampleDropped", func(r *tile.Request) { r.Samples = r.Samples[:1] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if RequestKey(digestReq(tc.mut)) == base {
				t.Fatalf("%s does not affect the digest: a config change would serve stale bits", tc.name)
			}
		})
	}
}

// TestRequestKeySeedBits pins that the digest covers the warm-start
// seed's values, not just its presence: two requests seeded with
// different masks must occupy distinct cache entries, because the seed
// determines the whole descent trajectory.
func TestRequestKeySeedBits(t *testing.T) {
	seeded := func(v float64) Key {
		return RequestKey(digestReq(func(r *tile.Request) {
			seed := grid.New(r.Plan.WindowPx, r.Plan.WindowPx)
			seed.Data[0] = v
			r.Cfg.SeedMask = seed
		}))
	}
	if seeded(0.5) == seeded(0.25) {
		t.Fatal("two different seeds collided on one cache key")
	}
}

// TestRequestKeySeedDigestCarriedOrComputed: a seed enters the key by its
// size and digest, and the key is the same whether the digest is handed
// in (as Runner hands on the one the warm-start library took) or hashed
// from the seed's bits. A handed-in digest is taken as given, so one that
// does not match the seed moves the key — the caller owns the match — and
// with no seed attached it is ignored.
func TestRequestKeySeedDigestCarriedOrComputed(t *testing.T) {
	seed := grid.New(64, 64)
	for i := range seed.Data {
		seed.Data[i] = float64(i%13) / 13
	}
	d := frame.FieldDigest(seed)
	req := digestReq(func(r *tile.Request) { r.Cfg.SeedMask = seed })
	if requestKey(req, &d) != RequestKey(req) {
		t.Fatalf("a carried seed digest wrote another key than one computed from the bits:\n  %s\n  %s", requestKey(req, &d), RequestKey(req))
	}
	other := d
	other[0] ^= 1
	if requestKey(req, &other) == RequestKey(req) {
		t.Fatal("the key ignored the carried seed digest")
	}
	if unseeded := digestReq(nil); requestKey(unseeded, &d) != RequestKey(unseeded) {
		t.Fatal("a digest with no seed moved an unseeded key")
	}
}

// TestRequestKeyDeterministic guards the encoding itself: the same
// request must hash identically across calls (no map iteration, no
// pointer identity in the digest).
func TestRequestKeyDeterministic(t *testing.T) {
	a, b := RequestKey(digestReq(nil)), RequestKey(digestReq(nil))
	if a != b {
		t.Fatalf("two digests of identical requests differ: %s vs %s", a, b)
	}
	if len(a.String()) != 64 {
		t.Fatalf("key string %q is not 64 hex digits", a.String())
	}
}

// TestRequestKeyPlanSharing drives the digest through the real planner:
// the same cell placed in two different tiles at the same in-tile offset
// must produce identical requests (window-local geometry and samples),
// while a tile holding different geometry must not. Halo 0 keeps the
// windows disjoint so each window sees exactly its own cell.
func TestRequestKeyPlanSharing(t *testing.T) {
	cell := func(x, y float64) geom.Polygon {
		return geom.Rect{X: x + 100, Y: y + 100, W: 160, H: 90}.Polygon()
	}
	l := &geom.Layout{
		Name:   "repeat",
		SizeNM: 1024,
		Polys: []geom.Polygon{
			cell(0, 0),     // tile (0,0)
			cell(512, 512), // tile (1,1): same cell, shifted one pitch
			geom.Rect{X: 600, Y: 100, W: 90, H: 160}.Polygon(), // tile (1,0): different cell
		},
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	p, err := tile.NewPlan(l, 8, 512, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cols != 2 || p.HaloPx != 0 {
		t.Fatalf("want a 2x2 plan with zero halo, got %dx%d halo %d px", p.Cols, p.Rows, p.HaloPx)
	}

	cfg := ilt.DefaultConfig(ilt.ModeFast)
	full := l.SamplePoints(metrics.DefaultParams().EPESampleNM)
	ws := &sim.Simulator{Cfg: optics.Default(), Resist: resist.Default()}
	keyOf := func(idx int) Key {
		tl := &p.Tiles[idx]
		// Window-local samples, mirroring the scheduler's splitSamples.
		var samples []geom.Sample
		wx := float64(tl.WinX0) * p.PixelNM
		wy := float64(tl.WinY0) * p.PixelNM
		for _, s := range full {
			if s.Pt.X < wx || s.Pt.X >= wx+p.WindowNM || s.Pt.Y < wy || s.Pt.Y >= wy+p.WindowNM {
				continue
			}
			s.Pt.X -= wx
			s.Pt.Y -= wy
			samples = append(samples, s)
		}
		return RequestKey(&tile.Request{Plan: p, Tile: tl, Sim: ws, Cfg: cfg, Samples: samples})
	}

	sw, ne, se := keyOf(0), keyOf(3), keyOf(1)
	if sw != ne {
		t.Fatalf("translation-shifted copies of one cell hash differently:\n  %s\n  %s", sw, ne)
	}
	if sw == se {
		t.Fatal("tiles with different geometry collided on one key")
	}
}
