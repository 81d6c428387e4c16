// Package mosaic is a Go implementation of MOSAIC (DAC 2014): inverse-
// lithography mask optimization with simultaneous design-target and
// process-window optimization.
//
// The package is a façade over the internal pipeline — optics (Hopkins TCC
// / SOCS kernels), resist, forward simulation, geometry, metrics, and the
// ILT optimizer — exposing the workflow a mask-synthesis user needs:
//
//	setup, err := mosaic.NewSetup(mosaic.DefaultOptics())
//	layout, err := mosaic.Benchmark("B4")
//	result, err := setup.Optimize(mosaic.DefaultConfig(mosaic.ModeExact), layout)
//	report, err := setup.Evaluate(result.Mask, layout, result.RuntimeSec)
//	fmt.Printf("EPE=%d PVB=%.0f score=%.0f\n",
//	        report.EPEViolations, report.PVBandNM2, report.Score)
//
// Types from the internal packages are re-exported as aliases so the whole
// API is reachable from this single import.
package mosaic

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"os"
	"time"

	"mosaic/internal/artifact"
	"mosaic/internal/bench"
	"mosaic/internal/cache"
	"mosaic/internal/gds"
	"mosaic/internal/geom"
	"mosaic/internal/grid"
	"mosaic/internal/ilt"
	"mosaic/internal/metrics"
	"mosaic/internal/obs"
	"mosaic/internal/opc"
	"mosaic/internal/optics"
	"mosaic/internal/resist"
	"mosaic/internal/sim"
	"mosaic/internal/tile"
	"mosaic/internal/vectorize"
	"mosaic/internal/warmstart"
)

// Re-exported types: the full public surface of the library.
type (
	// OpticsConfig describes the imaging system and mask grid.
	OpticsConfig = optics.Config
	// Field is a dense 2-D raster (mask, image, band...).
	Field = grid.Field
	// Layout is a rectilinear layout clip.
	Layout = geom.Layout
	// Polygon is a rectilinear ring in nm coordinates.
	Polygon = geom.Polygon
	// Point is a position in nm.
	Point = geom.Point
	// Rect is an axis-aligned rectangle in nm.
	Rect = geom.Rect
	// Config holds every ILT optimizer parameter.
	Config = ilt.Config
	// Mode selects MOSAIC_fast or MOSAIC_exact.
	Mode = ilt.Mode
	// Result is an optimization outcome: the best mask and its score.
	Result = ilt.Result
	// IterStats is one optimization iteration's record.
	IterStats = ilt.IterStats
	// Report is a full contest-metric evaluation of a mask.
	Report = metrics.Report
	// Method is any mask synthesis approach (MOSAIC or a baseline).
	Method = opc.Method
	// TileRunner executes one tile of a sharded run; the default runs
	// in-process (see TileOptions.Runner).
	TileRunner = tile.Runner
	// TileCache is a content-addressed tile-result store: repeated
	// windows — the same cell geometry under the same configuration,
	// anywhere in any layout — are optimized once and served from the
	// cache afterwards (see TileOptions.Cache and OpenTileCache).
	TileCache = cache.Store
	// ArtifactStore is the durable provenance store: every completed run
	// commits its tile results as content-addressed blobs anchored by a
	// Merkle tree over their digests plus the canonical job manifest
	// (see TileOptions.Artifact and OpenArtifactStore).
	ArtifactStore = artifact.Store
	// ArtifactRecord is one anchored run: job ID, manifest digest,
	// Merkle root, and the per-tile leaves with attribution.
	ArtifactRecord = artifact.Record
	// ArtifactLeaf is one anchored tile result (digest + attribution).
	ArtifactLeaf = artifact.Leaf
	// VerifyReport is the outcome of re-proving a stored artifact from
	// leaf bytes to its anchored Merkle root.
	VerifyReport = artifact.VerifyReport
	// TileProvenance attributes one tile result: the cache tier that
	// served it and the warm-start seed it started from.
	TileProvenance = tile.Provenance
	// WarmStartLibrary is a durable pattern library of (target-pattern
	// signature -> converged continuous mask) pairs: new windows whose
	// target is near a stored pattern start the descent from the
	// retrieved mask instead of the rule-based init (see
	// TileOptions.WarmStart and OpenWarmStartLibrary).
	WarmStartLibrary = warmstart.Library
)

// OpenTileCache opens a content-addressed tile-result cache for
// TileOptions.Cache. dir is the durable tier's directory ("" keeps the
// cache memory-only); memBytes is the in-process tier's byte budget
// (0 = cache.DefaultMemBytes, negative = disk-only). A cache is safe to
// share across every run and job of a process — sharing is the point.
func OpenTileCache(dir string, memBytes int64) (*TileCache, error) {
	return cache.Open(cache.Options{Dir: dir, MemBytes: memBytes})
}

// OpenArtifactStore opens (creating if absent) a durable provenance
// store for TileOptions.Artifact. Every completed OptimizeLayout run
// then commits its results as content-addressed blobs under a Merkle
// anchor, queryable and verifiable afterwards (see internal/artifact).
// Close it when the process is done; commits after Close fail.
func OpenArtifactStore(dir string) (*ArtifactStore, error) { return artifact.Open(dir) }

// OpenWarmStartLibrary opens (creating if absent) a warm-start pattern
// library for TileOptions.WarmStart. maxDist is the signature distance
// threshold for retrieval (0 = warmstart.DefaultMaxDist); harvest
// enables writing converged masks back. Invalid options (negative
// distance, unwritable directory) are reported as *ConfigError. Like the
// tile cache, one library is safe — and meant — to be shared across
// every run and job of a process.
func OpenWarmStartLibrary(dir string, maxDist float64, harvest bool) (*WarmStartLibrary, error) {
	return warmstart.Open(warmstart.Options{Dir: dir, MaxDist: maxDist, Harvest: harvest})
}

// Optimization modes.
const (
	ModeFast  = ilt.ModeFast
	ModeExact = ilt.ModeExact
)

// ParseMode reads a mode as the command line and the job API spell it:
// "fast" or "exact", "" meaning the default, fast. Anything else is a
// *ConfigError on "mode".
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "fast":
		return ModeFast, nil
	case "exact":
		return ModeExact, nil
	}
	return ModeFast, &ConfigError{Field: "mode", Reason: fmt.Sprintf("%q is not fast or exact", s)}
}

// Observability: the pipeline records metrics into a process-wide registry
// (internal/obs) and logs through a shared log/slog logger; Config.OnIter
// streams per-iteration statistics during optimization.

// Logger returns the process-wide pipeline logger (default: stderr text
// at warn level).
func Logger() *slog.Logger { return obs.Logger() }

// MetricsText returns every pipeline metric in Prometheus text format.
func MetricsText() string { return obs.MetricsText() }

// DefaultOptics returns the paper's imaging configuration (193 nm, NA
// 1.35, annular 0.6/0.9, 24 SOCS kernels) on a 512-pixel grid covering the
// 1024 nm contest clip at 2 nm/px.
func DefaultOptics() OpticsConfig { return optics.Default() }

// DefaultConfig returns the paper's optimizer parameters for a mode.
func DefaultConfig(mode Mode) Config { return ilt.DefaultConfig(mode) }

// DefaultEvalParams returns the paper's evaluation constants.
func DefaultEvalParams() metrics.Params { return metrics.DefaultParams() }

// Setup bundles a calibrated forward simulator with evaluation parameters;
// it is the entry point for optimization and evaluation.
type Setup struct {
	Sim    *sim.Simulator
	Params metrics.Params
}

// NewSetup builds a simulator for cfg together with the SOCS kernel set of
// every focus plane of the default process window (the corners of
// sim.ProcessCorners at Params.DefocusNM: nominal and defocused), the
// planes concurrently where cores are free, then calibrates the resist
// threshold on the nominal plane so well-resolved features print on
// target. When it returns, optimizing or evaluating at those corners
// builds no kernel; the sets are cached process-wide, so a second Setup of
// the same cfg builds none either. A plane that fails to build fails
// NewSetup. A grid Admit would refuse — not a power of two, below 4 pixels
// (it cannot hold the calibration line), beyond one frame — is a
// *ConfigError before any kernel is built.
func NewSetup(cfg OpticsConfig) (*Setup, error) {
	if err := checkGrid(cfg.GridSize); err != nil {
		return nil, err
	}
	s, err := sim.New(cfg, resist.Default())
	if err != nil {
		return nil, err
	}
	params := metrics.DefaultParams()
	if err := s.BuildPlanes(sim.ProcessCorners(params.DefocusNM, params.DoseDelta)); err != nil {
		return nil, err
	}
	thr, err := s.CalibrateThreshold()
	if err != nil {
		return nil, fmt.Errorf("mosaic: calibrating resist threshold: %w", err)
	}
	s.Resist.Threshold = thr
	return &Setup{Sim: s, Params: params}, nil
}

// Optimize runs the ILT optimizer with an explicit configuration on a
// layout the setup grid covers: the one-window plan of OptimizeLayout, so
// every rule and every bit is the pipeline's. A layout without polygons
// gets the pipeline's shared, read-only all-dark result.
func (s *Setup) Optimize(cfg Config, layout *Layout) (*Result, error) {
	return s.OptimizeCtx(context.Background(), cfg, layout)
}

// OptimizeCtx is Optimize under a context: the descent loop checks ctx
// between iterations, so cancellation (from another goroutine, a timeout,
// a serving layer) stops the run within one iteration. A canceled run
// returns an error wrapping both ErrCanceled and the context error.
func (s *Setup) OptimizeCtx(ctx context.Context, cfg Config, layout *Layout) (*Result, error) {
	if err := s.checkFits(layout); err != nil {
		return nil, err
	}
	res, err := s.OptimizeLayout(ctx, cfg, layout, TileOptions{})
	if err != nil {
		return nil, err
	}
	return res.Tiles[0], nil
}

// Evaluate computes the full contest metrics (EPE violations, PV band,
// shape violations, Eq. 22 score) for a mask against a target layout.
// runtimeSec is folded into the score; pass 0 to score quality only.
func (s *Setup) Evaluate(mask *Field, layout *Layout, runtimeSec float64) (*Report, error) {
	return s.EvaluateCtx(context.Background(), mask, layout, runtimeSec)
}

// EvaluateCtx is Evaluate under a context: cancellation is honored before
// the imaging. The layout must fit the setup grid and the
// mask raster must match it exactly; a mismatch returns ErrGridMismatch
// instead of a silently mis-scored report. It scores through
// EvaluateLayoutCtx's one-window plan.
func (s *Setup) EvaluateCtx(ctx context.Context, mask *Field, layout *Layout, runtimeSec float64) (*Report, error) {
	if err := s.checkFits(layout); err != nil {
		return nil, err
	}
	return s.EvaluateLayoutCtx(ctx, mask, layout, TileOptions{}, runtimeSec)
}

// TileOptions configures OptimizeLayout's pipeline: the layout is
// decomposed into halo-padded core tiles that are optimized concurrently
// and stitched into one mask (see internal/tile). Every option applies to
// every run — a layout that fits the simulation grid is a one-window plan
// and is scheduled, cached, seeded, dispatched and anchored like any tile.
// A window runs once: the first tile error fails the run. Each window is
// padded by at least the λ/NA ambit of the optics (tile.DefaultHaloNM). A
// negative TileNM or Workers is a *ConfigError (see Admit); zero is each
// one's default.
type TileOptions struct {
	// TileNM is the core tile pitch in nm. 0 derives it from the setup:
	// GridSize * PixelNM (one grid's worth of layout per tile).
	TileNM float64
	// Workers is a core-reservation hint: how many tiles the scheduler
	// tries to run concurrently, each holding one reservation in the
	// process-global compute pool while it computes (a tile served from
	// the cache holds none). 0 means the pool capacity (GOMAXPROCS).
	// It is an upper bound, not a demand — actual concurrency never
	// exceeds the pool, and cores the tile level leaves idle are soaked up
	// by inner (optimizer/FFT) parallelism. Results are bit-identical for
	// any value.
	Workers int
	// OnTile, when non-nil, observes tile completions (for progress).
	OnTile func(done, total int)
	// Runner, when non-nil, executes tiles in place of the in-process
	// optimizer. Scheduling and stitching are unchanged, so any Runner
	// that reproduces tile.RunWindow's bits keeps the run bit-identical to
	// a local one. It is handed only windows that hold geometry.
	Runner TileRunner
	// Cache, when non-nil, serves tiles whose content address — the
	// window's geometry in window-local coordinates plus the full
	// imaging/resist/optimizer configuration — was optimized before,
	// skipping the optimization. Cached results are bit-identical to cold
	// ones, so every other guarantee is unchanged. See OpenTileCache.
	Cache *TileCache
	// Artifact, when non-nil, commits the completed run to the
	// provenance store: every tile result becomes a content-addressed
	// blob, anchored by a Merkle tree over
	// the digests plus the canonical job manifest. A commit failure
	// fails the run — a run that claims provenance is auditable or it
	// is not returned. See OpenArtifactStore.
	Artifact *ArtifactStore
	// ArtifactJob is the job ID the artifact record is anchored under;
	// empty uses the layout name. The serving layer sets it to the
	// submitted job's ID so GET /v1/jobs/{id}/provenance resolves.
	ArtifactJob string
	// WarmStart, when non-nil, seeds each window's optimization from the
	// nearest stored pattern in the library (falling back to the normal
	// init on a miss or when the seed probes worse) and harvests every
	// converged window back into it. Seeded windows must score no worse
	// than cold ones — the optimizer's probe and best-iterate selection
	// guarantee it — but are not bit-identical to them; with an empty or
	// absent library the run is bit-identical to an unseeded one. With
	// a Cache as well, a window the cache holds under its unseeded key is
	// served from there before the library is consulted, and a seeded
	// result is filed under its seeded key only (cache.Runner is the one
	// policy). See OpenWarmStartLibrary.
	WarmStart *WarmStartLibrary
}

// LayoutResult is the outcome of OptimizeLayout: a mask covering the whole
// layout, with the per-tile optimizer results.
type LayoutResult struct {
	Mask     *Field // binary full-layout mask
	MaskGray *Field // continuous mask before binarization

	Tiled      bool      // whether the layout was sharded into more than one window
	Tiles      []*Result // per-tile results in row-major order; one entry for a one-window run
	Workers    int       // worker bound actually used
	SeamNM     float64   // cross-fade band actually used
	Iterations int       // optimizer iterations summed over tiles
	RuntimeSec float64

	// Provenance attributes each tile result (parallel to Tiles): the
	// cache tier that served it, the seed it started from.
	Provenance []TileProvenance
	// Artifact is the anchored provenance record when TileOptions.
	// Artifact was set; nil otherwise.
	Artifact *ArtifactRecord
}

// checkFits is the clip-level calls' gate: a nil layout or one
// Layout.Validate refuses is a *ConfigError on Layout, and a layout
// fitsGrid refuses is an ErrGridMismatch — those calls would rasterize it
// on a grid covering another extent.
func (s *Setup) checkFits(layout *Layout) error {
	if layout == nil {
		return &ConfigError{Field: "Layout", Reason: "is nil"}
	}
	if err := layout.Validate(); err != nil {
		return &ConfigError{Field: "Layout", Reason: err.Error()}
	}
	if fitsGrid(s.Sim.Cfg, layout) {
		return nil
	}
	return gridMismatch("simulation grid covers %g nm but layout clip %q is %g nm (OptimizeLayout and EvaluateLayout take any extent)",
		s.Sim.Cfg.FieldNM(), layout.Name, layout.SizeNM)
}

// JobOptics returns the imaging configuration a job over layout runs at,
// as every front-end derives it: base on a grid of gridSize pixels (0
// keeps base.GridSize) whose pixel size makes the grid cover the layout
// exactly — or, when tileNM shards the layout (TileOptions.TileNM), one
// core tile, the tile planner sizing the padded windows from there.
// sharded reports which; whether the result can run is Admit's to say.
func JobOptics(base OpticsConfig, gridSize int, layout *Layout, tileNM float64) (cfg OpticsConfig, sharded bool) {
	cfg = base
	if gridSize != 0 {
		cfg.GridSize = gridSize
	}
	extent := layout.SizeNM
	if sharded = shards(layout, tileNM); sharded {
		extent = tileNM
	}
	cfg.PixelNM = extent / float64(cfg.GridSize)
	return cfg, sharded
}

// tilePlan decomposes layout per opts (tileExtent) at the setup's pixel
// size and returns the plan together with the window simulator: the
// setup's own simulator when the window matches its grid, otherwise a new
// one sharing the calibrated resist model.
func (s *Setup) tilePlan(layout *Layout, opts TileOptions) (*tile.Plan, *sim.Simulator, error) {
	coreNM, haloNM := tileExtent(s.Sim.Cfg, layout, opts)
	plan, err := tile.NewPlan(layout, s.Sim.Cfg.PixelNM, coreNM, haloNM)
	if err != nil {
		return nil, nil, err
	}
	wcfg := plan.WindowOptics(s.Sim.Cfg)
	if wcfg.GridSize == s.Sim.Cfg.GridSize {
		return plan, s.Sim, nil
	}
	ws, err := sim.New(wcfg, s.Sim.Resist)
	if err != nil {
		return nil, nil, err
	}
	return plan, ws, nil
}

// OptimizeLayout optimizes a layout of arbitrary extent through one
// pipeline: the layout is decomposed into halo-padded windows, each window
// that holds geometry runs once through cache.Runner (cache lookup,
// warm-start seed, compute and store) around opts.Runner on the scheduler
// (compute-pool reservations), and the windows are stitched into one
// full-layout mask.
// A layout that fits the setup grid (and is not explicitly sharded
// smaller by opts.TileNM) is a one-window plan — the run Optimize makes,
// bit-identical to the bare optimizer on the clip — and cfg.OnIter
// reaches the optimizer, which across several windows it cannot. ctx cancels the run within one
// optimizer iteration. A request Admit would refuse is refused here,
// with the same *ConfigError, before anything is planned or built.
func (s *Setup) OptimizeLayout(ctx context.Context, cfg Config, layout *Layout, opts TileOptions) (*LayoutResult, error) {
	if err := admit(s.Sim.Cfg, layout, &cfg, opts); err != nil {
		return nil, err
	}
	plan, ws, err := s.tilePlan(layout, opts)
	if err != nil {
		return nil, err
	}
	res, err := plan.Optimize(ctx, ws, cfg, tile.Options{
		Workers: opts.Workers,
		OnTile:  opts.OnTile,
		Runner:  cache.NewRunner(opts.Cache, opts.WarmStart, opts.Runner),
	})
	if err != nil {
		return nil, wrapCanceled(err)
	}
	iters := 0
	for _, tr := range res.Tiles {
		iters += tr.Iterations
	}
	out := &LayoutResult{
		Mask:       res.Mask,
		MaskGray:   res.MaskGray,
		Tiled:      len(plan.Tiles) > 1,
		Tiles:      res.Tiles,
		Workers:    res.Workers,
		SeamNM:     res.SeamNM,
		Iterations: iters,
		RuntimeSec: res.RuntimeSec,
		Provenance: res.Prov,
	}
	if err := s.recordArtifact(opts, cfg, layout, out, ws, plan); err != nil {
		return nil, err
	}
	return out, nil
}

// recordArtifact commits a completed run to the provenance store: one
// blob per tile result (content-addressed, so repeated cells and warm
// re-runs deduplicate), one blob for the canonical manifest, one
// anchor record binding them under a Merkle root. A failure fails the
// run — when provenance is requested, the result is auditable or it is
// not returned. No-op when no store is configured.
func (s *Setup) recordArtifact(opts TileOptions, cfg Config, layout *Layout, out *LayoutResult, ws *sim.Simulator, plan *tile.Plan) error {
	if opts.Artifact == nil {
		return nil
	}
	man, err := artifact.NewManifest(layout, ws, cfg, plan, out.SeamNM).Encode()
	if err != nil {
		return fmt.Errorf("mosaic: recording artifact: %w", err)
	}
	leaves := make([]artifact.Leaf, len(out.Tiles))
	for i, res := range out.Tiles {
		d, err := opts.Artifact.PutResult(res)
		if err != nil {
			return fmt.Errorf("mosaic: storing tile %d artifact: %w", i, err)
		}
		leaves[i] = artifact.Leaf{Index: i, Blob: d, Provenance: out.Provenance[i]}
	}
	jobID := opts.ArtifactJob
	if jobID == "" {
		jobID = layout.Name
	}
	rec, err := opts.Artifact.Commit(jobID, man, leaves)
	if err != nil {
		return fmt.Errorf("mosaic: anchoring artifact for %s: %w", jobID, err)
	}
	out.Artifact = rec
	return nil
}

// EvaluateLayout scores a mask covering a layout of arbitrary extent by
// full-SOCS simulation under the decomposition OptimizeLayout would use
// (opts.TileNM must match for the grids to line up): a layout the setup
// grid covers and opts does not shard is one window whose crop is the
// identity. The mask raster must cover the layout exactly at the setup's
// pixel size on both axes; a mismatch returns ErrGridMismatch instead of a
// silently mis-scored report. A nil layout is a *ConfigError on Layout.
func (s *Setup) EvaluateLayout(mask *Field, layout *Layout, opts TileOptions, runtimeSec float64) (*Report, error) {
	return s.EvaluateLayoutCtx(context.Background(), mask, layout, opts, runtimeSec)
}

// EvaluateLayoutCtx is EvaluateLayout under a context: cancellation is
// honored before each window's imaging.
func (s *Setup) EvaluateLayoutCtx(ctx context.Context, mask *Field, layout *Layout, opts TileOptions, runtimeSec float64) (*Report, error) {
	if layout == nil {
		return nil, &ConfigError{Field: "Layout", Reason: "is nil"}
	}
	px := s.Sim.Cfg.PixelNM
	fullPx := int(math.Round(layout.SizeNM / px))
	if mask == nil || mask.W != fullPx || mask.H != fullPx {
		w, h := -1, -1
		if mask != nil {
			w, h = mask.W, mask.H
		}
		return nil, gridMismatch("mask raster is %dx%d but layout %q needs %dx%d at %g nm/px", w, h, layout.Name, fullPx, fullPx, px)
	}
	plan, ws, err := s.tilePlan(layout, opts)
	if err != nil {
		return nil, err
	}
	rep, err := plan.EvaluateCtx(ctx, ws, mask, s.Params, runtimeSec)
	return rep, wrapCanceled(err)
}

// RunResult is one (method, testcase) outcome of Run.
type RunResult struct {
	Method     string
	Testcase   string
	Mask       *Field
	RuntimeSec float64
	Report     *Report
}

// Run executes any Method (MOSAIC or a baseline) on a layout, timing the
// synthesis, and scores the mask through Evaluate. Methods work on the
// whole clip: a layout the setup grid does not cover exactly returns
// ErrGridMismatch instead of a silently mis-scored report, and a nil or
// invalid one is a *ConfigError on Layout.
func (s *Setup) Run(m Method, layout *Layout) (*RunResult, error) {
	if err := s.checkFits(layout); err != nil {
		return nil, err
	}
	start := time.Now()
	mask, err := m.Optimize(s.Sim, layout)
	if err != nil {
		return nil, fmt.Errorf("mosaic: %s on %s: %w", m.Name(), layout.Name, err)
	}
	elapsed := time.Since(start).Seconds()
	rep, err := s.Evaluate(mask, layout, elapsed)
	if err != nil {
		return nil, err
	}
	return &RunResult{Method: m.Name(), Testcase: layout.Name, Mask: mask, RuntimeSec: elapsed, Report: rep}, nil
}

// Methods returns the paper's comparison set in Table 2/3 row order:
// the three baselines standing in for the contest winners, then
// MOSAIC_fast and MOSAIC_exact.
func Methods() []Method {
	return []Method{
		opc.NewRuleBased(),
		opc.NewModelBased(),
		opc.NewPlainILT(),
		opc.NewMOSAIC(ilt.ModeFast),
		opc.NewMOSAIC(ilt.ModeExact),
	}
}

// TraceMask vectorizes a binary mask into rectilinear polygons (outer
// rings counter-clockwise, holes clockwise): the geometry a mask shop
// consumes. Rasterizing the result reproduces the mask exactly.
func TraceMask(name string, mask *Field, pixelNM float64) *Layout {
	return vectorize.ToLayout(name, mask, pixelNM)
}

// MaskRectangles decomposes a binary mask into an exact cover of
// axis-aligned rectangles, the shot unit of a VSB mask writer.
func MaskRectangles(mask *Field, pixelNM float64) []Rect {
	return vectorize.Rectangles(mask, pixelNM)
}

// SaveGDS writes a layout (target or vectorized mask) as a GDSII stream
// file with all polygons on the given layer.
func SaveGDS(path string, l *Layout, layer int16) error { return gds.Save(path, l, layer) }

// LoadGDS reads a flat GDSII file into a layout. sizeNM sets the clip
// size; pass 0 to derive it from the geometry bounding box.
func LoadGDS(path string, sizeNM float64) (*Layout, error) { return gds.Load(path, sizeNM) }

// Benchmark returns one of the built-in B1..B10 benchmark clips.
func Benchmark(name string) (*Layout, error) { return bench.Layout(name) }

// Benchmarks returns the full built-in suite in order.
func Benchmarks() ([]*Layout, error) { return bench.All() }

// BenchmarkNames lists the built-in testcase names.
func BenchmarkNames() []string { return bench.Names() }

// LoadLayout reads a layout clip from a text layout file (see the geom
// package for the format: CLIP/RECT/POLY statements).
func LoadLayout(path string) (*Layout, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	l, err := geom.Parse(f)
	if err != nil {
		return nil, fmt.Errorf("mosaic: parsing %s: %w", path, err)
	}
	return l, nil
}

// SaveLayout writes a layout clip to a text layout file.
func SaveLayout(path string, l *Layout) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := geom.Write(f, l); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
