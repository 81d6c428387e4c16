package mosaic

import (
	"context"
	"errors"
	"strings"
	"testing"

	"mosaic/internal/sim"
	"mosaic/internal/tile"
)

func TestErrUnknownBenchmark(t *testing.T) {
	if _, err := Benchmark("B999"); !errors.Is(err, ErrUnknownBenchmark) {
		t.Fatalf("got %v, want ErrUnknownBenchmark", err)
	}
	if _, err := Benchmark("B1"); err != nil {
		t.Fatalf("B1 failed: %v", err)
	}
}

func TestConfigErrorNamesField(t *testing.T) {
	s, err := NewSetup(smallOptics())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(ModeFast)
	cfg.Gamma = 3
	_, err = s.Optimize(cfg, smallLayout())
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want a *ConfigError", err)
	}
	if ce.Field != "Gamma" {
		t.Fatalf("ConfigError names field %q, want Gamma", ce.Field)
	}
}

func TestEvaluateRejectsGridMismatch(t *testing.T) {
	s, err := NewSetup(smallOptics())
	if err != nil {
		t.Fatal(err)
	}
	layout := smallLayout()
	n := s.Sim.Cfg.GridSize

	// Square but wrong size.
	bad := layout.Rasterize(n/2, 2*s.Sim.Cfg.PixelNM)
	if _, err := s.Evaluate(bad, layout, 0); !errors.Is(err, ErrGridMismatch) {
		t.Fatalf("wrong-size mask: got %v, want ErrGridMismatch", err)
	}

	// The regression of the untiled EvaluateLayout path: mask.W matches the
	// grid but mask.H does not — previously only W was checked and the
	// report silently mis-scored.
	lop := layout.Rasterize(n, s.Sim.Cfg.PixelNM).Crop(0, 0, n, n/2)
	if lop.W != n || lop.H != n/2 {
		t.Fatalf("test mask is %dx%d, want %dx%d", lop.W, lop.H, n, n/2)
	}
	if _, err := s.EvaluateLayout(lop, layout, TileOptions{}, 0); !errors.Is(err, ErrGridMismatch) {
		t.Fatalf("W-only match on untiled path: got %v, want ErrGridMismatch", err)
	}

	// Tiled path: layout larger than the grid, mask raster too small.
	big := &Layout{Name: "big", SizeNM: 1024, Polys: smallLayout().Polys}
	if err := big.Validate(); err != nil {
		t.Fatal(err)
	}
	small := layout.Rasterize(n, s.Sim.Cfg.PixelNM) // 64 px, needs 128
	if _, err := s.EvaluateLayout(small, big, TileOptions{TileNM: 512}, 0); !errors.Is(err, ErrGridMismatch) {
		t.Fatalf("undersized mask on tiled path: got %v, want ErrGridMismatch", err)
	}

	// A matching mask still evaluates.
	ok := layout.Rasterize(n, s.Sim.Cfg.PixelNM)
	if _, err := s.EvaluateLayout(ok, layout, TileOptions{}, 0); err != nil {
		t.Fatalf("matching mask rejected: %v", err)
	}
}

func TestOptimizeCtxCanceled(t *testing.T) {
	s, err := NewSetup(smallOptics())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = s.OptimizeCtx(ctx, DefaultConfig(ModeFast), smallLayout())
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want the chain to keep context.Canceled", err)
	}
}

func TestOptimizeCtxGridMismatch(t *testing.T) {
	s, err := NewSetup(smallOptics())
	if err != nil {
		t.Fatal(err)
	}
	big := &Layout{Name: "big", SizeNM: 1024, Polys: smallLayout().Polys}
	if _, err := s.Optimize(DefaultConfig(ModeFast), big); !errors.Is(err, ErrGridMismatch) {
		t.Fatalf("got %v, want ErrGridMismatch", err)
	}
	// A baseline Method takes the clip whole too. This is cmd/mosaic's
	// -method run under a -tile-nm that halved the pixel: it used to score
	// the 1024 nm clip on a grid covering 512 nm of it and exit 0.
	if _, err := s.Run(Methods()[0], big); !errors.Is(err, ErrGridMismatch) {
		t.Fatalf("Run: got %v, want ErrGridMismatch", err)
	}
}

func TestEvaluateCtxCanceled(t *testing.T) {
	s, err := NewSetup(smallOptics())
	if err != nil {
		t.Fatal(err)
	}
	layout := smallLayout()
	mask := layout.Rasterize(s.Sim.Cfg.GridSize, s.Sim.Cfg.PixelNM)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.EvaluateCtx(ctx, mask, layout, 0); !errors.Is(err, ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
}

// TestEveryEntryPointRefusesABadLayout: one gate for every clip-level and
// layout-level call. A nil layout and one Layout.Validate refuses are a
// *ConfigError on Layout from each of them, as from OptimizeLayout; none
// panics and none scores what it cannot run.
func TestEveryEntryPointRefusesABadLayout(t *testing.T) {
	s, err := NewSetup(smallOptics())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := DefaultConfig(ModeFast)
	mask := smallLayout().Rasterize(s.Sim.Cfg.GridSize, s.Sim.Cfg.PixelNM)
	calls := map[string]func(*Layout) error{
		"OptimizeLayout": func(l *Layout) error { _, err := s.OptimizeLayout(ctx, cfg, l, TileOptions{}); return err },
		"Optimize":       func(l *Layout) error { _, err := s.Optimize(cfg, l); return err },
		"OptimizeCtx":    func(l *Layout) error { _, err := s.OptimizeCtx(ctx, cfg, l); return err },
		"Evaluate":       func(l *Layout) error { _, err := s.Evaluate(mask, l, 0); return err },
		"EvaluateCtx":    func(l *Layout) error { _, err := s.EvaluateCtx(ctx, mask, l, 0); return err },
		"EvaluateLayout": func(l *Layout) error { _, err := s.EvaluateLayout(mask, l, TileOptions{}, 0); return err },
		"EvaluateLayoutCtx": func(l *Layout) error {
			_, err := s.EvaluateLayoutCtx(ctx, mask, l, TileOptions{}, 0)
			return err
		},
		"Run": func(l *Layout) error { _, err := s.Run(Methods()[0], l); return err },
	}
	skewed := &Layout{Name: "skewed", SizeNM: 512, Polys: []Polygon{
		{{X: 0, Y: 0}, {X: 40, Y: 40}, {X: 40, Y: 0}, {X: 0, Y: 40}},
	}}
	for name, call := range calls {
		for _, l := range []*Layout{nil, skewed} {
			var ce *ConfigError
			if err := call(l); !errors.As(err, &ce) || ce.Field != "Layout" {
				t.Errorf("%s(%v): got %v, want a *ConfigError on Layout", name, l, err)
			}
		}
	}
}

// TestEvaluateLayoutScoresThePlan: a sharding TileNM on a layout the setup
// grid covers is scored under that plan, as OptimizeLayout made the mask —
// bit for bit the plan's own tiled report, never the untiled one.
func TestEvaluateLayoutScoresThePlan(t *testing.T) {
	s, err := NewSetup(smallOptics())
	if err != nil {
		t.Fatal(err)
	}
	layout := smallLayout()
	opts := TileOptions{TileNM: layout.SizeNM / 2}
	res, err := s.OptimizeLayout(context.Background(), warmCfg(2), layout, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Tiled {
		t.Fatal("the run was not sharded")
	}
	got, err := s.EvaluateLayout(res.Mask, layout, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := tile.NewPlan(layout, s.Sim.Cfg.PixelNM, opts.TileNM, tile.DefaultHaloNM(s.Sim.Cfg))
	if err != nil {
		t.Fatal(err)
	}
	ws, err := sim.New(plan.WindowOptics(s.Sim.Cfg), s.Sim.Resist)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plan.Evaluate(ws, res.Mask, s.Params, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.EPEViolations != want.EPEViolations || got.PVBandNM2 != want.PVBandNM2 ||
		got.ShapeViolations != want.ShapeViolations || got.Score != want.Score {
		t.Fatalf("EvaluateLayout: EPE %d PVB %g shape %d score %g; the plan: EPE %d PVB %g shape %d score %g",
			got.EPEViolations, got.PVBandNM2, got.ShapeViolations, got.Score,
			want.EPEViolations, want.PVBandNM2, want.ShapeViolations, want.Score)
	}
	for i, v := range want.AerialNominal.Data {
		if got.AerialNominal.Data[i] != v {
			t.Fatalf("nominal aerial image differs from the plan's at pixel %d", i)
		}
	}
}

// failingMethod is a Method whose every run fails.
type failingMethod struct{}

var errNoMask = errors.New("no mask today")

func (failingMethod) Name() string { return "Failing" }

func (failingMethod) Optimize(*sim.Simulator, *Layout) (*Field, error) { return nil, errNoMask }

// TestRunAndEvaluateErrorWrapping: a method's failure is Run's error,
// naming the method and the clip.
func TestRunAndEvaluateErrorWrapping(t *testing.T) {
	s, err := NewSetup(smallOptics())
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Run(failingMethod{}, smallLayout())
	if !errors.Is(err, errNoMask) || !strings.Contains(err.Error(), "Failing on api-test") {
		t.Fatalf("got %v, want the method's error naming Failing and api-test", err)
	}
}
