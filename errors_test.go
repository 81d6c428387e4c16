package mosaic

import (
	"context"
	"errors"
	"testing"
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
