package ilt

import (
	"context"
	"math"
	"testing"

	"mosaic/internal/geom"
	"mosaic/internal/grid"
	"mosaic/internal/metrics"
	"mosaic/internal/optics"
	"mosaic/internal/resist"
	"mosaic/internal/sim"
)

// run optimizes a clip o's grid covers as tile.RunWindow does a
// one-window plan: RunRasterCtx on the clip's raster and its EPE samples
// at the scorer's pitch.
func run(o *Optimizer, layout *geom.Layout) (*Result, error) {
	return runCtx(context.Background(), o, layout)
}

// runCtx is run under a context.
func runCtx(ctx context.Context, o *Optimizer, layout *geom.Layout) (*Result, error) {
	target := layout.Rasterize(o.Sim.Cfg.GridSize, o.Sim.Cfg.PixelNM)
	return o.RunRasterCtx(ctx, layout, target, layout.SamplePoints(metrics.DefaultParams().EPESampleNM))
}

func testOptimizer(t *testing.T, mode Mode) (*Optimizer, *geom.Layout) {
	t.Helper()
	c := optics.Default()
	c.GridSize = 64
	c.PixelNM = 8
	c.Kernels = 6
	s, err := sim.New(c, resist.Default())
	if err != nil {
		t.Fatal(err)
	}
	thr, err := s.CalibrateThreshold()
	if err != nil {
		t.Fatal(err)
	}
	s.Resist.Threshold = thr

	cfg := DefaultConfig(mode)
	cfg.SRAFInit = false
	cfg.MaxIter = 8
	o, err := New(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	layout := &geom.Layout{
		Name:   "grad-test",
		SizeNM: 512,
		Polys: []geom.Polygon{
			geom.Rect{X: 160, Y: 144, W: 96, H: 224}.Polygon(),
			geom.Rect{X: 304, Y: 144, W: 48, H: 224}.Polygon(),
		},
	}
	if err := layout.Validate(); err != nil {
		t.Fatal(err)
	}
	return o, layout
}

// objectiveAt evaluates the configured objective for the mask derived from
// parameter field p.
func objectiveAt(o *Optimizer, p *grid.Field, models []focusModel, target *grid.Field, samples []geom.Sample) float64 {
	mask := maskFromParams(p)
	return o.evalState(mask, models, target, samples, false).objective
}

// checkGradient compares the analytic dF/dP against central finite
// differences at a spread of probe pixels of testOptimizer's 64-px grid.
func checkGradient(t *testing.T, o *Optimizer, layout *geom.Layout) {
	t.Helper()
	// Probe pixels in and around the features where the gradient is live.
	checkGradientAt(t, o, layout, [][2]int{
		{24, 32}, {20, 32}, {26, 20}, {30, 32}, {38, 30}, {40, 18}, {44, 40}, {10, 10},
	})
}

func checkGradientAt(t *testing.T, o *Optimizer, layout *geom.Layout, probes [][2]int) {
	t.Helper()
	n := o.Sim.Cfg.GridSize
	target := layout.Rasterize(n, o.Sim.Cfg.PixelNM)
	samples := layout.SamplePoints(metrics.DefaultParams().EPESampleNM)

	models, err := o.buildModels()
	if err != nil {
		t.Fatal(err)
	}

	p := paramsFromMask(target, initEps)
	mask := maskFromParams(p)
	st := o.evalState(mask, models, target, samples, true)
	o.adjoint(st, target)
	grad := o.gradient(st, n)
	for i, g := range grad.Data {
		mv := mask.Data[i]
		grad.Data[i] = g * thetaM * mv * (1 - mv)
	}

	const eps = 1e-4
	checked := 0
	gLo, gHi := grad.MinMax()
	gScale := math.Max(math.Abs(gLo), math.Abs(gHi))
	if gScale == 0 {
		t.Fatal("gradient identically zero")
	}
	for _, pr := range probes {
		idx := pr[1]*n + pr[0]
		orig := p.Data[idx]
		p.Data[idx] = orig + eps
		fPlus := objectiveAt(o, p, models, target, samples)
		p.Data[idx] = orig - eps
		fMinus := objectiveAt(o, p, models, target, samples)
		p.Data[idx] = orig
		numeric := (fPlus - fMinus) / (2 * eps)
		analytic := grad.Data[idx]
		// Skip numerically dead probes.
		if math.Abs(numeric) < 1e-9*gScale && math.Abs(analytic) < 1e-9*gScale {
			continue
		}
		diff := math.Abs(numeric - analytic)
		if diff > 2e-3*(math.Abs(numeric)+math.Abs(analytic))+1e-9*gScale {
			t.Errorf("pixel (%d,%d): analytic %.6e vs numeric %.6e", pr[0], pr[1], analytic, numeric)
		}
		checked++
	}
	if checked < 4 {
		t.Fatalf("only %d live probes; test too weak", checked)
	}
}

func TestGradientFiniteDifferenceFast(t *testing.T) {
	o, layout := testOptimizer(t, ModeFast)
	checkGradient(t, o, layout)
}

func TestGradientFiniteDifferenceExact(t *testing.T) {
	o, layout := testOptimizer(t, ModeExact)
	checkGradient(t, o, layout)
}

func TestGradientFiniteDifferenceFullSOCS(t *testing.T) {
	o, layout := testOptimizer(t, ModeExact) // full kernel stack
	o.Cfg.Mode = ModeFast
	checkGradient(t, o, layout)
}

func TestGradientFiniteDifferenceCombinedKernel(t *testing.T) {
	o, layout := testOptimizer(t, ModeFast)
	o.Cfg.GradKernels = 0 // Eq. 21 combined kernel
	checkGradient(t, o, layout)
}

// TestGradientFiniteDifferencePVBDominated isolates F_pvb's adjoint: at
// beta = 100 the Eq. 18 term is over 99 % of F on this layout and carries
// the gradient, so a sign or factor slip in it fails here.
func TestGradientFiniteDifferencePVBDominated(t *testing.T) {
	o, layout := testOptimizer(t, ModeFast)
	o.Cfg.Beta = 100
	checkGradient(t, o, layout)
}

func TestGradientFiniteDifferenceTruncatedKernels(t *testing.T) {
	o, layout := testOptimizer(t, ModeFast)
	o.Cfg.GradKernels = 3 // truncated, renormalized stack
	checkGradient(t, o, layout)
}

// TestGradientFiniteDifference128 repeats the finite-difference check on a
// 128-px grid over the paper's 1024 nm field, where the imaging grid (64) is
// half the mask grid and has the benchmark's K = 14: testOptimizer's layout
// and probes at twice the size. Its best-focus plane runs paired in both
// modes, so the check covers the untangled adjoint of sim.ImagingGrid.Adjoint
// next to the defocused plane's one-kernel-a-unit path; the Eq. 21 kernel
// is never paired.
func TestGradientFiniteDifference128(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mode   Mode
		tweak  func(*Config)
		paired bool // the nominal plane's stack
	}{
		{"fast", ModeFast, func(*Config) {}, true},
		{"exact", ModeExact, func(*Config) {}, true},
		{"combined-kernel", ModeFast, func(c *Config) { c.GradKernels = 0 }, false},
		{"pvb-dominated", ModeFast, func(c *Config) { c.Beta = 100 }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			small, layout := testOptimizer(t, tc.mode)
			c := small.Sim.Cfg
			c.GridSize = 128
			s, err := sim.New(c, resist.Default())
			if err != nil {
				t.Fatal(err)
			}
			if s.Resist.Threshold, err = s.CalibrateThreshold(); err != nil {
				t.Fatal(err)
			}
			if ig := sim.NewImagingGrid(c.GridSize, c.BandLimitK()); ig.Nc != 64 {
				t.Fatalf("imaging grid %d, want 64", ig.Nc)
			}
			cfg := small.Cfg
			tc.tweak(&cfg)
			o, err := New(s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			big := &geom.Layout{Name: "grad-test-128", SizeNM: 2 * layout.SizeNM}
			for _, poly := range layout.Polys {
				scaled := make(geom.Polygon, len(poly))
				for i, pt := range poly {
					scaled[i] = geom.Point{X: 2 * pt.X, Y: 2 * pt.Y}
				}
				big.Polys = append(big.Polys, scaled)
			}
			if err := big.Validate(); err != nil {
				t.Fatal(err)
			}
			models, err := o.buildModels()
			if err != nil {
				t.Fatal(err)
			}
			if got := models[0].stack.Paired(); models[0].Lead.DefocusNM != 0 || got != tc.paired {
				t.Fatalf("plane 0 at %g nm: paired %v, want best focus and paired %v", models[0].Lead.DefocusNM, got, tc.paired)
			}
			if models[1].stack.Paired() {
				t.Fatalf("the defocused plane is paired")
			}
			checkGradientAt(t, o, big, [][2]int{
				{48, 64}, {40, 64}, {52, 40}, {60, 64}, {76, 60}, {80, 36}, {88, 80}, {20, 20},
			})
		})
	}
}

func TestTruncatedStackOpenFrameUnit(t *testing.T) {
	// The renormalized truncated stack must image a clear mask to
	// intensity 1 so the resist threshold keeps its calibration.
	o, _ := testOptimizer(t, ModeFast)
	o.Cfg.GradKernels = 3
	models, err := o.buildModels()
	if err != nil {
		t.Fatal(err)
	}
	m := models[0]
	dc := 0.0
	for i, f := range m.stack.Freqs {
		v := f.At(m.ig.K, m.ig.K)
		dc += m.stack.Weights[i] * (real(v)*real(v) + imag(v)*imag(v))
	}
	if diff := dc - 1; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("truncated open-frame intensity %g, want 1", dc)
	}
}
