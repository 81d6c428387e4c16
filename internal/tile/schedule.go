package tile

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mosaic/internal/geom"
	"mosaic/internal/grid"
	"mosaic/internal/ilt"
	"mosaic/internal/metrics"
	"mosaic/internal/obs"
	"mosaic/internal/par"
	"mosaic/internal/sim"
)

// Request carries everything needed to optimize one tile. Sim is the
// window simulator the local runner optimizes on.
type Request struct {
	Plan    *Plan
	Tile    *Tile
	Sim     *sim.Simulator
	Cfg     ilt.Config
	Samples []geom.Sample

	// Prov, when non-nil, is filled in by whoever produces the result:
	// cache.Runner records the tier and content key it served from and
	// the warm-start seed. The scheduler owns the pointed-to value.
	Prov *Provenance
}

// Provenance attributes one tile result: how it was served and what it
// started from. All fields are optional — an uncached, unseeded run
// legitimately attributes nothing. It is the one attribution record: the
// scheduler fills it, LayoutResult reports it and an anchored artifact
// leaf embeds it, so the JSON names are the leaf's wire names. An older
// record's "worker" field (the cluster worker that computed the tile) is
// ignored on read.
type Provenance struct {
	// Key is the tile-cache content address of the request (hex), set
	// when a cache was consulted.
	Key string `json:"key,omitempty"`
	// Tier is how the result was obtained: one of the Tier constants, or
	// "" for a fresh computation with no cache in play.
	Tier string `json:"tier,omitempty"`
	// Seed is the warm-start library entry (content key, hex) the tile's
	// optimization was seeded from; empty when the run started cold or
	// the retrieved seed was rejected by the optimizer's probe.
	Seed string `json:"seed,omitempty"`
}

// Provenance.Tier values.
const (
	TierMem    = "mem"    // served from the cache's memory tier
	TierDisk   = "disk"   // served from the cache's disk tier (promoted to memory)
	TierFlight = "flight" // served by waiting on a concurrent computation
	TierMiss   = "miss"   // computed after a cache lookup missed
	TierEmpty  = "empty"  // window with no geometry: nothing to optimize
)

// Class is what producing a tile cost the run that reports it.
type Class int

const (
	ClassComputed Class = iota // optimized for this run: Tier "", TierMiss or an unknown one (an old record's "journal")
	ClassHit                   // served by the tile cache, any tier
	ClassEmpty                 // short-circuited for having no geometry
)

// Class classifies the tile by its Tier.
func (p Provenance) Class() Class {
	switch p.Tier {
	case TierMem, TierDisk, TierFlight:
		return ClassHit
	case TierEmpty:
		return ClassEmpty
	}
	return ClassComputed
}

// Runner executes one tile optimization. The scheduler is runner-agnostic:
// progress and stitching are identical whatever runner the tiles go
// through (cache.Runner, the cache and warm-start policy, wraps one), and
// it hands a runner only windows that hold geometry. Implementations must
// be safe for concurrent calls and must return results that depend only
// on the request, never on when they ran — the bit-identity guarantee of
// a sharded run rests on it. So does a failure: the scheduler calls a
// runner once per window, and a runner that can recover from a transient
// fault does so itself.
type Runner interface {
	RunTile(ctx context.Context, req *Request) (*ilt.Result, error)
}

// LocalRunner optimizes tiles in-process on the window simulator: the
// scheduler's default and its route for empty windows, and what
// cache.Runner wraps when given no inner runner.
type LocalRunner struct{}

func (LocalRunner) RunTile(ctx context.Context, req *Request) (*ilt.Result, error) {
	return RunWindow(ctx, req.Sim, req.Cfg, req.Tile.Layout, req.Plan.WindowPx, req.Plan.PixelNM, req.Samples)
}

// emptyResults shares one all-dark result per window size (keyed by
// windowPx). Sparse full-chip layouts are mostly empty windows, and
// allocating two windowPx² grids per empty tile dwarfed the cost of
// skipping the optimization; every empty window of a size now serves the
// same immutable result, like a degenerate-key cache entry. Safe because
// tile results are consumed read-only (stitching and the codecs never
// write into them).
var emptyResults sync.Map // int -> *ilt.Result

// emptyWindowResult returns the shared all-dark result for a window size.
func emptyWindowResult(windowPx int) *ilt.Result {
	if r, ok := emptyResults.Load(windowPx); ok {
		return r.(*ilt.Result)
	}
	z := grid.New(windowPx, windowPx)
	r, _ := emptyResults.LoadOrStore(windowPx, &ilt.Result{Mask: z, MaskGray: z.Clone()})
	return r.(*ilt.Result)
}

// RunWindow runs the clip-level optimizer on one halo-padded window: the
// local runner's one execution path. It is also the one definition of an
// empty window's result: a window with no geometry is a shared all-dark
// mask, counted under tile_empty_total. Nothing prints there, sparse
// full-chip layouts are mostly empty windows, and the scheduler routes them
// here directly, past the cache and the warm-start library.
//
// It is also the one place a tile takes a core: a window that computes
// holds one reservation in the global compute pool (par.Reserve) for as
// long as it runs. Reservations have priority over inner (ilt/fft) helper
// tokens, so the tile level claims cores first and a process never runs
// more tiles than cores, whichever jobs they belong to. Everything in
// front of this call (a cache hit, an empty window) computes nothing here
// and so never queues behind a tile that does. The wait for a core is part
// of what the caller times (tile_seconds, the tile.optimize span).
func RunWindow(ctx context.Context, ws *sim.Simulator, cfg ilt.Config, layout *geom.Layout, windowPx int, pixelNM float64, samples []geom.Sample) (*ilt.Result, error) {
	if len(layout.Polys) == 0 {
		tileEmpty.Inc()
		return emptyWindowResult(windowPx), nil
	}
	core, err := par.Reserve(ctx)
	if err != nil {
		return nil, err
	}
	defer core.Release()
	opt, err := ilt.New(ws, cfg)
	if err != nil {
		return nil, err
	}
	target := layout.Rasterize(windowPx, pixelNM)
	return opt.RunRasterCtx(ctx, layout, target, samples)
}

// Scheduler metrics: tiles optimized, the per-tile wall-time
// distribution, and windows short-circuited because they contained no
// geometry.
var (
	tileOpts    = obs.NewCounter("tile_opt_total")
	tileSeconds = obs.NewHistogram("tile_seconds")
	tileEmpty   = obs.NewCounter("tile_empty_total")
)

// Options tunes one Plan.Optimize run.
type Options struct {
	// Workers is a core-reservation hint: the number of tiles the
	// scheduler hands to the runner concurrently. A tile that computes
	// in-process holds one reservation in the global compute pool while it
	// does (see RunWindow). 0 means the pool capacity (GOMAXPROCS). The
	// hint is an upper bound, not a demand — actual compute concurrency is
	// bounded by the pool, with queued tile reservations taking cores
	// ahead of inner (ilt/fft) parallelism, and whatever the tile level
	// leaves idle is soaked up by those inner loops. Results are
	// bit-identical for any value.
	Workers int

	// OnTile, when non-nil, is called after each tile finishes, under a
	// lock (never concurrently), with the number of tiles done so far.
	OnTile func(done, total int)

	// Runner executes the windows that hold geometry; nil runs them
	// in-process on the window simulator. cache.Runner, the cache and
	// warm-start policy, plugs in here while the scheduler and stitching
	// stay unchanged. Empty windows always run on LocalRunner.
	Runner Runner
}

// Result is the outcome of a tiled optimization run.
type Result struct {
	Mask     *grid.Field // stitched binary full-layout mask (FullPx square)
	MaskGray *grid.Field // stitched continuous mask before binarization

	Tiles      []*ilt.Result // per-tile results in plan (row-major) order
	Prov       []Provenance  // per-tile attribution, parallel to Tiles
	Workers    int           // worker bound actually used
	SeamNM     float64       // seam band actually used (after clamping)
	RuntimeSec float64       // wall time of the whole pipeline run
}

// resolveWorkers applies the Options default and tile-count clamp.
func (p *Plan) resolveWorkers(workers int) int {
	if workers <= 0 {
		workers = par.Capacity()
	}
	if workers > len(p.Tiles) {
		workers = len(p.Tiles)
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Optimize runs one ilt.Optimizer per tile on a bounded worker pool and
// stitches the results into a full-layout mask. ws must be the window
// simulator (grid = Plan.WindowPx at Plan.PixelNM); cfg is the per-tile
// optimizer configuration. Its OnIter hook reaches the optimizer only
// when the plan has a single window; across several windows the calls
// would interleave, so a multi-window run forces it off — use
// Options.OnTile for progress. The SOCS kernel stacks for every
// process corner are built once before the pool starts and shared
// read-only by all workers.
//
// Results are deterministic in plan order regardless of scheduling. The
// first tile error cancels the remaining work and is returned; ctx
// cancellation does the same with ctx.Err().
func (p *Plan) Optimize(ctx context.Context, ws *sim.Simulator, cfg ilt.Config, opts Options) (*Result, error) {
	if err := p.checkWindowSim(ws); err != nil {
		return nil, err
	}
	ctx, runSpan := obs.StartSpan(ctx, obs.TilePipeline,
		obs.String("layout", p.Layout.Name), obs.Int("tiles", len(p.Tiles)))
	defer runSpan.End()
	start := time.Now()

	// Build the shared kernel stacks up front, one per focus plane.
	// optics.Kernels is single-flight, so workers could not race the
	// construction anyway; building here surfaces a build error before the
	// pool starts instead of once per tile.
	if err := ws.BuildPlanes(sim.ProcessCorners(cfg.DefocusNM, cfg.DoseDelta)); err != nil {
		return nil, err
	}

	// Per-tile configuration: with more than one window OnIter goes off
	// (its calls would interleave across workers); a one-window plan is
	// the clip-level optimizer run and keeps it.
	tcfg := cfg
	if len(p.Tiles) > 1 {
		tcfg.OnIter = nil
	}

	samples := p.splitSamples(p.Layout.SamplePoints(metrics.DefaultParams().EPESampleNM))
	results := make([]*ilt.Result, len(p.Tiles))
	provs := make([]Provenance, len(p.Tiles))

	runner := opts.Runner
	if runner == nil {
		runner = LocalRunner{}
	}
	workers := p.resolveWorkers(opts.Workers)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next     atomic.Int64
		done     atomic.Int64
		firstErr error
		errOnce  sync.Once
		notifyMu sync.Mutex
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}

	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(p.Tiles) || ctx.Err() != nil {
					return
				}
				t := &p.Tiles[i]
				tctx, sp := obs.StartSpan(ctx, obs.TileOptimize,
					obs.Int("tile", i), obs.Int("col", t.Col), obs.Int("row", t.Row))
				// provs[i] is race-free: exactly one worker claims index i
				// (next.Add), and the slice is read only after wg.Wait.
				req := &Request{Plan: p, Tile: t, Sim: ws, Cfg: tcfg, Samples: samples[i], Prov: &provs[i]}
				r := runner
				if len(t.Layout.Polys) == 0 {
					// Nothing to optimize, cache or seed: RunWindow
					// serves the shared dark result.
					r = LocalRunner{}
					provs[i].Tier = TierEmpty
				}
				var res *ilt.Result
				var err error
				// A panicking runner is this tile's error: left alone it
				// would end the process from a goroutine nobody can recover.
				if pe := par.Catch(func() { res, err = r.RunTile(tctx, req) }); pe != nil {
					obs.Logger().Error("tile: runner panicked", "tile", i, "panic", pe.Value, "stack", string(pe.Stack))
					err = fmt.Errorf("panic: %v", pe.Value)
				}
				if err != nil {
					sp.SetAttrs(obs.String("error", err.Error()))
					sp.End()
					fail(fmt.Errorf("tile: optimizing tile (%d,%d): %w", t.Col, t.Row, err))
					return
				}
				results[i] = res
				tileOpts.Inc()
				tileSeconds.Observe(sp.End().Seconds())
				n := int(done.Add(1))
				obs.Event(ctx, obs.TileDone,
					obs.Int("tile", i), obs.Int("done", n), obs.Int("total", len(p.Tiles)),
					obs.Float("objective", res.Objective), obs.Int("iterations", res.Iterations))
				if opts.OnTile != nil {
					notifyMu.Lock()
					opts.OnTile(n, len(p.Tiles))
					notifyMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// The cross-fade band is half the effective halo, clamped by Stitch to
	// what the window overlap holds.
	mask, gray, seamNM := p.Stitch(results, p.HaloNM/2)
	out := &Result{
		Mask:       mask,
		MaskGray:   gray,
		Tiles:      results,
		Prov:       provs,
		Workers:    workers,
		SeamNM:     seamNM,
		RuntimeSec: time.Since(start).Seconds(),
	}
	runSpan.End()
	obs.Logger().Debug("tile pipeline finished",
		"layout", p.Layout.Name, "tiles", len(p.Tiles), "workers", workers,
		"window_px", p.WindowPx, "halo_nm", p.HaloNM, "seam_nm", seamNM,
		"runtime_sec", out.RuntimeSec)
	return out, nil
}

// checkWindowSim validates that ws simulates exactly one plan window.
func (p *Plan) checkWindowSim(ws *sim.Simulator) error {
	if ws == nil {
		return fmt.Errorf("tile: nil window simulator")
	}
	if ws.Cfg.GridSize != p.WindowPx {
		return fmt.Errorf("tile: window simulator grid %d does not match plan window %d px", ws.Cfg.GridSize, p.WindowPx)
	}
	if diff := ws.Cfg.PixelNM - p.PixelNM; diff > 1e-9 || diff < -1e-9 {
		return fmt.Errorf("tile: window simulator pixel %g nm does not match plan pixel %g nm", ws.Cfg.PixelNM, p.PixelNM)
	}
	return nil
}
