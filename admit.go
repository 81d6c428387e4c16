package mosaic

import (
	"fmt"
	"math"

	"mosaic/internal/frame"
	"mosaic/internal/tile"
)

// checkGrid is the grid rule of NewSetup and Admit: a power of two, large
// enough to calibrate on, whose raster fits the frame every result travels
// in.
func checkGrid(n int) error {
	refuse := func(format string, args ...any) error {
		return &ConfigError{Field: "OpticsConfig.GridSize", Reason: fmt.Sprintf(format, args...)}
	}
	switch {
	case n <= 0 || n&(n-1) != 0:
		return refuse("must be a positive power of two, got %d", n)
	case n < 4: // sim.CalibrateThreshold's line: a quarter of the field wide, a dark pixel beside it
		return refuse("must be >= 4 to hold the threshold calibration line, got %d", n)
	case !frame.SquareFits(n):
		return refuse("a %dx%d raster exceeds the %d-byte frame every result travels in", n, n, frame.MaxPayload)
	}
	return nil
}

// Admit is the one gate a run request passes, whichever front-end took it:
// it decides, without building a kernel, whether OptimizeLayout would run
// layout under cfg and opts on the optics JobOptics derives from base and
// gridSize, and refuses with a *ConfigError naming the library field
// otherwise. Every rule a layer below would apply is here: the grid and the
// optics, non-negative TileNM / HaloNM / Workers, the window
// geometry tile.NewPlan derives (tile.NewGeometry) and the optimizer's
// rules (ilt.Config.Validate). OptimizeLayout applies it to its own
// arguments; a front-end calls it so that what it queues, or builds a
// Setup for, is what will run.
func Admit(base OpticsConfig, gridSize int, layout *Layout, cfg Config, opts TileOptions) error {
	if layout == nil {
		return &ConfigError{Field: "Layout", Reason: "is nil"}
	}
	optics, _ := JobOptics(base, gridSize, layout, opts.TileNM)
	return admit(optics, layout, &cfg, opts)
}

// admit is Admit on resolved optics. Each bound is written so that a NaN
// fails it.
func admit(o OpticsConfig, layout *Layout, cfg *Config, opts TileOptions) error {
	refuse := func(field, format string, args ...any) error {
		return &ConfigError{Field: field, Reason: fmt.Sprintf(format, args...)}
	}
	switch {
	case layout == nil:
		return refuse("Layout", "is nil")
	case !(layout.SizeNM > 0) || math.IsInf(layout.SizeNM, 1): // the pixel size is derived from it
		return refuse("Layout.SizeNM", "must be positive and finite, got %g", layout.SizeNM)
	case !(opts.TileNM >= 0):
		return refuse("TileOptions.TileNM", "must be >= 0 (0 = one grid per tile), got %g", opts.TileNM)
	case !(opts.HaloNM >= 0):
		return refuse("TileOptions.HaloNM", "must be >= 0 (0 = the λ/NA ambit), got %g", opts.HaloNM)
	case opts.Workers < 0:
		return refuse("TileOptions.Workers", "must be >= 0 (0 = compute pool capacity), got %d", opts.Workers)
	}
	if err := checkGrid(o.GridSize); err != nil {
		return err
	}
	if err := o.Validate(); err != nil {
		return refuse("OpticsConfig", "%v", err)
	}
	coreNM, haloNM := tileExtent(o, layout, opts)
	g, err := tile.NewGeometry(layout, o.PixelNM, coreNM, haloNM)
	if err != nil {
		return err
	}
	return cfg.Validate(g.WindowPx, o.PixelNM)
}

// fitsGrid reports whether layout covers exactly the grid of o, i.e.
// whether the clip-level optimizer and evaluator take it whole.
func fitsGrid(o OpticsConfig, layout *Layout) bool {
	return math.Abs(o.FieldNM()-layout.SizeNM) <= 1e-9
}

// shards reports whether a core tile pitch splits layout into more than
// one tile; 0, or a pitch the layout fits inside, leaves it whole.
func shards(layout *Layout, tileNM float64) bool {
	return tileNM > 0 && tileNM < layout.SizeNM
}

// tileExtent resolves opts to the core pitch and minimum halo layout is
// planned with at optics o. A layout that fits the grid and is not sharded
// smaller by opts.TileNM is the degenerate plan: one zero-halo window that
// is the grid, so the clip-level optimizer runs on it unchanged. Otherwise
// zero means the default: one grid per core, the λ/NA ambit.
func tileExtent(o OpticsConfig, layout *Layout, opts TileOptions) (coreNM, haloNM float64) {
	if fitsGrid(o, layout) && !shards(layout, opts.TileNM) {
		return layout.SizeNM, 0
	}
	coreNM, haloNM = opts.TileNM, opts.HaloNM
	if coreNM == 0 {
		coreNM = o.FieldNM()
	}
	if haloNM == 0 {
		haloNM = tile.DefaultHaloNM(o)
	}
	return coreNM, haloNM
}
