// Profiling entry points: in-process copies of the repo benchmark's clip
// operation, micro-benchmarks of the computational kernels, and the tile,
// cache and warm-start pipelines, on a reduced grid (128 px over the
// 1024 nm clip). They are not the paper's tables: cmd/experiments writes
// those into results/ at 512 px / 2 nm, and its tests re-run Table 2
// against that archive.
package mosaic

import (
	"context"
	"fmt"
	"testing"

	"mosaic/internal/sim"
)

const benchGrid = 128

var benchSetupCache *Setup

func benchSetup(b *testing.B) *Setup {
	b.Helper()
	if benchSetupCache == nil {
		benchSetupCache = newBenchSetup(b, benchGrid)
	}
	return benchSetupCache
}

// newBenchSetup calibrates a setup of px pixels over the 1024 nm clip.
func newBenchSetup(b *testing.B, px int) *Setup {
	b.Helper()
	cfg := DefaultOptics()
	cfg.GridSize = px
	cfg.PixelNM = 1024.0 / float64(px)
	s, err := NewSetup(cfg)
	if err != nil {
		b.Fatal(err)
	}
	// Pre-build the defocus kernel set so its one-time construction
	// cost never lands inside a measurement loop.
	if _, err := s.Sim.Kernels(s.Params.DefocusNM); err != nil {
		b.Fatal(err)
	}
	return s
}

func benchLayout(b *testing.B, name string) *Layout {
	b.Helper()
	l, err := Benchmark(name)
	if err != nil {
		b.Fatal(err)
	}
	return l
}

// BenchmarkClipOperation is an in-process copy of the repo benchmark's
// clips_fast / clips_exact operation: one op is one B-suite clip, B1 to B10
// in turn, optimized untiled through OptimizeLayout with the paper's
// configuration and scored with Evaluate, at 128 px / 8 nm. OptimizeLayout
// runs the clip as one window under a compute-pool reservation, as the
// benchmark's op does; Optimize takes none, so a -cpu 1,2 profile of a loop
// over Optimize sees another pool than this op.
func BenchmarkClipOperation(b *testing.B) {
	s := benchSetup(b)
	var layouts []*Layout
	for _, name := range BenchmarkNames() {
		layouts = append(layouts, benchLayout(b, name))
	}
	for _, m := range []struct {
		name string
		mode Mode
	}{{"fast", ModeFast}, {"exact", ModeExact}} {
		b.Run(m.name, func(b *testing.B) {
			cfg := DefaultConfig(m.mode)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				layout := layouts[i%len(layouts)]
				res, err := s.OptimizeLayout(context.Background(), cfg, layout, TileOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.Evaluate(res.Mask, layout, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEvaluate is the scoring half of the clip operation: one B-suite
// clip's optimized mask (B4, MOSAIC_fast, made once outside the timer)
// scored at 128 px / 8 nm by Evaluate — the one-window plan the benchmark's
// op scores through — and by EvaluateLayout as a 2 x 2 plan of 512 nm
// tiles, whose windows each image both focus planes.
func BenchmarkEvaluate(b *testing.B) {
	s := benchSetup(b)
	layout := benchLayout(b, "B4")
	res, err := s.OptimizeLayout(context.Background(), DefaultConfig(ModeFast), layout, TileOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		tileNM float64
	}{{"untiled", 0}, {"tiled-2x2", 512}} {
		b.Run(c.name, func(b *testing.B) {
			opts := TileOptions{TileNM: c.tileNM}
			if _, err := s.EvaluateLayout(res.Mask, layout, opts, 0); err != nil { // builds the window kernels
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.EvaluateLayout(res.Mask, layout, opts, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Micro-benchmarks of the computational kernels ------------------------

func BenchmarkMicroForwardSOCS(b *testing.B) {
	s := benchSetup(b)
	layout := benchLayout(b, "B4")
	mask := layout.Rasterize(benchGrid, s.Sim.Cfg.PixelNM)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Sim.Aerial(mask, sim.Nominal()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicroForwardCombined(b *testing.B) {
	s := benchSetup(b)
	layout := benchLayout(b, "B4")
	mask := layout.Rasterize(benchGrid, s.Sim.Cfg.PixelNM)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Sim.AerialCombined(mask, sim.Nominal()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicroRasterize(b *testing.B) {
	s := benchSetup(b)
	layout := benchLayout(b, "B9")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		layout.Rasterize(benchGrid, s.Sim.Cfg.PixelNM)
	}
}

func BenchmarkMicroIteration(b *testing.B) {
	// A two-iteration run (fast mode): one full gradient-descent
	// iteration, the unit the paper's runtime scales with, and the
	// forward-only last iterate every run ends on. Both grids cover the same 1024 nm clip,
	// hence share one imaging grid (64): the per-kernel transforms cost the
	// same on both and only the per-plane resampling and the pixel loops
	// grow with the pixel count.
	layout := benchLayout(b, "B4")
	cfg := DefaultConfig(ModeFast)
	cfg.MaxIter = 2
	cfg.SRAFInit = false
	for _, px := range []int{benchGrid, 2 * benchGrid} {
		b.Run(fmt.Sprintf("grid=%d", px), func(b *testing.B) {
			s := benchSetup(b)
			if px != benchGrid {
				s = newBenchSetup(b, px)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Optimize(cfg, layout); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Tile pipeline: full-layout sharded optimization ----------------------

// tileBenchLayout replicates B4 into the four quadrants of a 2048 nm
// layout: a 2x2-tile workload at the benchmark tile pitch.
func tileBenchLayout(b *testing.B) *Layout {
	base := benchLayout(b, "B4")
	l := &Layout{Name: "B4x4", SizeNM: 2 * base.SizeNM}
	offs := []Point{{X: 0, Y: 0}, {X: base.SizeNM, Y: 0}, {X: 0, Y: base.SizeNM}, {X: base.SizeNM, Y: base.SizeNM}}
	for _, off := range offs {
		for _, p := range base.Polys {
			q := make(Polygon, len(p))
			for i, v := range p {
				q[i] = Point{X: v.X + off.X, Y: v.Y + off.Y}
			}
			l.Polys = append(l.Polys, q)
		}
	}
	return l
}

// BenchmarkTilePipeline measures tile-scheduler scaling: the 4-tile B4x4
// layout optimized end-to-end (decompose, per-tile ILT, stitch) with 1, 2,
// and 4 workers. On a multi-core host ns/op should fall roughly linearly
// with workers until tiles run out.
func BenchmarkTilePipeline(b *testing.B) {
	s := benchSetup(b)
	layout := tileBenchLayout(b)
	cfg := DefaultConfig(ModeFast)
	cfg.MaxIter = 6
	opts := TileOptions{TileNM: 1024}
	// Warm the window-grid kernel cache so its one-time construction cost
	// never lands inside a measurement loop.
	_, ws, err := s.tilePlan(layout, opts)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range sim.ProcessCorners(cfg.DefocusNM, cfg.DoseDelta) {
		if _, err := ws.Kernels(c.DefocusNM); err != nil {
			b.Fatal(err)
		}
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			o := opts
			o.Workers = workers
			for i := 0; i < b.N; i++ {
				res, err := s.OptimizeLayout(context.Background(), cfg, layout, o)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Tiled || len(res.Tiles) != 4 {
					b.Fatalf("expected a 4-tile run, got tiled=%v tiles=%d", res.Tiled, len(res.Tiles))
				}
			}
		})
	}
}

// BenchmarkTileCacheWarm measures what the content-addressed tile cache
// buys on a repeated layout: "cold" optimizes the 4-tile B4x4 workload
// into a fresh cache every iteration (every tile misses), "warm" reuses
// one primed cache (every tile hits and no optimizer runs). The gap is
// the per-layout cost the cache removes; "warm-seeded" is "warm" behind a
// read-only warm-start library, so every tile is seeded before its key is
// taken. hits/op and misses/op are reported so the archived text carries
// the hit rate alongside the timing.
func BenchmarkTileCacheWarm(b *testing.B) {
	s := benchSetup(b)
	layout := tileBenchLayout(b)
	cfg := DefaultConfig(ModeFast)
	cfg.MaxIter = 6
	opts := TileOptions{TileNM: 1024}
	_, ws, err := s.tilePlan(layout, opts)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range sim.ProcessCorners(cfg.DefocusNM, cfg.DoseDelta) {
		if _, err := ws.Kernels(c.DefocusNM); err != nil {
			b.Fatal(err)
		}
	}
	// run returns how many of the run's tiles were cache hits and misses.
	run := func(b *testing.B, o TileOptions) (hits, misses int) {
		res, err := s.OptimizeLayout(context.Background(), cfg, layout, o)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Tiled || len(res.Tiles) != 4 {
			b.Fatalf("expected a 4-tile run, got tiled=%v tiles=%d", res.Tiled, len(res.Tiles))
		}
		n := tierCounts(res)
		return n["mem"] + n["disk"] + n["flight"], n["miss"]
	}
	b.Run("cold", func(b *testing.B) {
		var hits, misses int
		for i := 0; i < b.N; i++ {
			store, err := OpenTileCache("", 256<<20)
			if err != nil {
				b.Fatal(err)
			}
			o := opts
			o.Cache = store
			h, m := run(b, o)
			hits += h
			misses += m
		}
		b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
		b.ReportMetric(float64(misses)/float64(b.N), "misses/op")
	})
	b.Run("warm", func(b *testing.B) {
		store, err := OpenTileCache("", 256<<20)
		if err != nil {
			b.Fatal(err)
		}
		o := opts
		o.Cache = store
		run(b, o) // prime the cache outside the timer
		b.ResetTimer()
		hits := 0
		for i := 0; i < b.N; i++ {
			h, m := run(b, o)
			if m != 0 {
				b.Fatalf("warm run %d recomputed %d tiles", i, m)
			}
			hits += h
		}
		b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
		b.ReportMetric(0, "misses/op")
	})
	// warm-seeded is the route of a resubmitted job behind a warm-start
	// library: a harvesting pass fills the library, which is then opened
	// read-only in front of a primed cache, so every tile is seeded before
	// its key is taken and then served from the cache.
	b.Run("warm-seeded", func(b *testing.B) {
		dir := b.TempDir()
		harvest, err := OpenWarmStartLibrary(dir, 0, true)
		if err != nil {
			b.Fatal(err)
		}
		o := opts
		o.WarmStart = harvest
		run(b, o)
		frozen, err := OpenWarmStartLibrary(dir, 0, false)
		if err != nil {
			b.Fatal(err)
		}
		store, err := OpenTileCache("", 256<<20)
		if err != nil {
			b.Fatal(err)
		}
		o.Cache, o.WarmStart = store, frozen
		run(b, o) // prime the cache with the seeded windows
		libHits, libMisses := libCounter("hits"), libCounter("misses")
		b.ResetTimer()
		hits := 0
		for i := 0; i < b.N; i++ {
			h, m := run(b, o)
			if m != 0 {
				b.Fatalf("warm seeded run %d recomputed %d tiles", i, m)
			}
			hits += h
		}
		b.StopTimer()
		if libHits, libMisses = libCounter("hits")-libHits, libCounter("misses")-libMisses; libHits == 0 || libMisses != 0 {
			b.Fatalf("the frozen library did not seed every window: %d hits, %d misses", libHits, libMisses)
		}
		b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
		b.ReportMetric(0, "misses/op")
	})
}

// BenchmarkWarmStartSeeded measures what the warm-start pattern library
// buys on its target workload — a repeated cell with placement jitter:
// "cold" optimizes each jittered placement from the rule-based init,
// "seeded" retrieves the harvested converged mask and starts there. Both
// report the optimizer iterations actually spent as iters/op, so the
// archived text carries the iteration cut alongside the wall-clock one
// (TestWarmStartIterationCut pins the counts).
func BenchmarkWarmStartSeeded(b *testing.B) {
	s := benchSetup(b)
	cfg := DefaultConfig(ModeFast)
	cfg.MaxIter = 12
	cfg.GradKernels = 1
	cfg.SRAFInit = false

	cell := func(dx, dy float64) *Layout {
		return &Layout{
			Name:   "warm-bench",
			SizeNM: 1024,
			Polys: []Polygon{
				Rect{X: 320 + dx, Y: 288 + dy, W: 192, H: 448}.Polygon(),
				Rect{X: 624 + dx, Y: 288 + dy, W: 112, H: 448}.Polygon(),
			},
		}
	}
	// Pixel-aligned placement jitter, cycled per iteration.
	jitter := [][2]float64{{8, 0}, {0, 8}, {8, 8}, {16, 8}, {8, 16}, {24, 0}}

	run := func(b *testing.B, lib *WarmStartLibrary) {
		var iters int64
		for i := 0; i < b.N; i++ {
			j := jitter[i%len(jitter)]
			res, err := s.OptimizeLayout(context.Background(), cfg, cell(j[0], j[1]),
				TileOptions{Workers: 1, WarmStart: lib})
			if err != nil {
				b.Fatal(err)
			}
			iters += int64(res.Iterations)
		}
		b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
	}

	b.Run("cold", func(b *testing.B) { run(b, nil) })
	b.Run("seeded", func(b *testing.B) {
		lib, err := OpenWarmStartLibrary(b.TempDir(), 0, true)
		if err != nil {
			b.Fatal(err)
		}
		// Prime the library with the cell's converged mask outside the
		// timer; every jittered placement then hits at distance zero.
		if _, err := s.OptimizeLayout(context.Background(), cfg, cell(0, 0),
			TileOptions{Workers: 1, WarmStart: lib}); err != nil {
			b.Fatal(err)
		}
		hits := libCounter("hits")
		b.ResetTimer()
		run(b, lib)
		if libCounter("hits") == hits {
			b.Fatal("seeded runs never hit the library")
		}
	})
}
