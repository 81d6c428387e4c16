package mosaic

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"mosaic/internal/sim"
)

// scalingSetup builds a small tiled workload: the B4 clip replicated into
// the four quadrants of a 2048 nm layout at a 128 px tile grid — four
// genuinely independent tiles for the scheduler to spread across cores.
func scalingSetup(t *testing.T) (*Setup, *Layout, Config, TileOptions) {
	t.Helper()
	base, err := Benchmark("B4")
	if err != nil {
		t.Fatal(err)
	}
	layout := &Layout{Name: "B4x4", SizeNM: 2 * base.SizeNM}
	offs := []Point{{X: 0, Y: 0}, {X: base.SizeNM, Y: 0}, {X: 0, Y: base.SizeNM}, {X: base.SizeNM, Y: base.SizeNM}}
	for _, off := range offs {
		for _, p := range base.Polys {
			q := make(Polygon, len(p))
			for i, v := range p {
				q[i] = Point{X: v.X + off.X, Y: v.Y + off.Y}
			}
			layout.Polys = append(layout.Polys, q)
		}
	}
	ocfg := DefaultOptics()
	ocfg.GridSize = 128
	ocfg.PixelNM = 1024.0 / 128
	s, err := NewSetup(ocfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(ModeFast)
	cfg.MaxIter = 6
	opts := TileOptions{TileNM: 1024}
	// Warm the window-grid kernel cache so its one-time construction cost
	// does not land inside either timed run.
	_, ws, err := s.tilePlan(layout, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range sim.ProcessCorners(cfg.DefocusNM, cfg.DoseDelta) {
		if _, err := ws.Kernels(c.DefocusNM); err != nil {
			t.Fatal(err)
		}
	}
	return s, layout, cfg, opts
}

// TestTilePipelineScaling checks that the compute pool actually converts
// cores into tile throughput: the 4-tile workload with workers=GOMAXPROCS
// must beat workers=1 by a conservative margin. The margin is far below
// the ideal min(4, cores)x speedup so scheduler noise, turbo effects, and
// shared-cache contention never flake the suite; what it guards against is
// the failure mode where reservations or inner-loop token hoarding
// serialize the tile level entirely (speedup ~1.0).
func TestTilePipelineScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling measurement skipped in -short mode")
	}
	cores := runtime.GOMAXPROCS(0)
	if cores < 4 {
		t.Skipf("scaling measurement needs >= 4 cores, have %d", cores)
	}
	s, layout, cfg, opts := scalingSetup(t)

	run := func(workers int) time.Duration {
		o := opts
		o.Workers = workers
		best := time.Duration(0)
		// Best-of-2: the first run also warms any remaining lazy state; the
		// minimum is the least-noisy estimate of the true cost.
		for rep := 0; rep < 2; rep++ {
			start := time.Now()
			res, err := s.OptimizeLayout(context.Background(), cfg, layout, o)
			el := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Tiled || len(res.Tiles) != 4 {
				t.Fatalf("expected a 4-tile run, got tiled=%v tiles=%d", res.Tiled, len(res.Tiles))
			}
			if rep == 0 || el < best {
				best = el
			}
		}
		return best
	}

	serial := run(1)
	parallelT := run(cores)
	speedup := float64(serial) / float64(parallelT)
	t.Logf("workers=1: %v, workers=%d: %v, speedup %.2fx", serial, cores, parallelT, speedup)
	const margin = 1.6 // conservative for a 4-tile workload on >= 4 cores
	if speedup < margin {
		t.Errorf("tile pipeline speedup %.2fx below %.1fx: parallel tiles are being serialized", speedup, margin)
	}
}

// TestOptimizeLayoutRejectsNegativeWorkers pins the typed validation of the
// Workers reservation hint.
func TestOptimizeLayoutRejectsNegativeWorkers(t *testing.T) {
	layout, err := Benchmark("B4")
	if err != nil {
		t.Fatal(err)
	}
	ocfg := DefaultOptics()
	ocfg.GridSize = 64
	ocfg.PixelNM = layout.SizeNM / 64
	s, err := NewSetup(ocfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.OptimizeLayout(context.Background(), DefaultConfig(ModeFast), layout, TileOptions{Workers: -1})
	if err == nil {
		t.Fatal("negative Workers accepted")
	}
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v (%T), want a *ConfigError", err, err)
	}
	if ce.Field != "TileOptions.Workers" {
		t.Fatalf("ConfigError names field %q, want TileOptions.Workers", ce.Field)
	}
}

// TestTileGeometryOptionsRejectNegative: a negative TileNM or HaloNM used to
// mean "default" without a word (the untiled and λ/NA fallbacks matched
// <= 0); both are typed errors of the gate every path that plans tiles goes
// through, and zero is still the documented default.
func TestTileGeometryOptionsRejectNegative(t *testing.T) {
	s, err := NewSetup(smallOptics())
	if err != nil {
		t.Fatal(err)
	}
	wide := &Layout{Name: "wide", SizeNM: 1024, Polys: smallLayout().Polys}
	for _, tc := range []struct {
		name   string
		layout *Layout
		opts   TileOptions
		field  string // "" = accepted
	}{
		{"zero on a one-window layout", smallLayout(), TileOptions{}, ""},
		{"zero on a sharded layout", wide, TileOptions{}, ""},
		{"negative TileNM, one window", smallLayout(), TileOptions{TileNM: -5}, "TileOptions.TileNM"},
		{"negative TileNM, sharded", wide, TileOptions{TileNM: -5}, "TileOptions.TileNM"},
		{"negative HaloNM, one window", smallLayout(), TileOptions{HaloNM: -1}, "TileOptions.HaloNM"},
		{"negative HaloNM, sharded", wide, TileOptions{TileNM: 512, HaloNM: -1}, "TileOptions.HaloNM"},
	} {
		cfg := DefaultConfig(ModeFast)
		err := admit(s.Sim.Cfg, tc.layout, &cfg, tc.opts)
		var ce *ConfigError
		switch {
		case tc.field == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.field != "" && (!errors.As(err, &ce) || ce.Field != tc.field):
			t.Errorf("%s: got %v, want a *ConfigError on %s", tc.name, err, tc.field)
		}
	}
	// The two entry points that plan tiles both surface it.
	var ce *ConfigError
	if _, err := s.OptimizeLayout(context.Background(), DefaultConfig(ModeFast), smallLayout(), TileOptions{HaloNM: -1}); !errors.As(err, &ce) {
		t.Errorf("OptimizeLayout: got %v, want a *ConfigError", err)
	}
	if _, err := s.EvaluateLayout(&Field{W: 128, H: 128, Data: make([]float64, 128*128)}, wide, TileOptions{TileNM: -5}, 0); !errors.As(err, &ce) {
		t.Errorf("EvaluateLayout: got %v, want a *ConfigError", err)
	}
}
