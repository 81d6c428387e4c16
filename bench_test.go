// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation (Sec. 4), plus the DESIGN.md ablations and
// micro-benchmarks of the computational kernels.
//
// Benchmarks run on a reduced grid (128 px over the 1024 nm clip) so the
// whole suite completes in minutes on one core; cmd/experiments runs the
// same code at the paper's full resolution and writes the results/ tables.
// Each benchmark reports the paper's metrics (EPE violations, PV band,
// score) as custom b.ReportMetric values, so the harness regenerates the
// table *rows*, not just timings.
package mosaic

import (
	"context"
	"fmt"
	"testing"

	"mosaic/internal/grid"
	"mosaic/internal/metrics"
	"mosaic/internal/resist"
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

// reportQuality attaches the contest metrics to the benchmark output.
func reportQuality(b *testing.B, rep *Report) {
	b.Helper()
	b.ReportMetric(float64(rep.EPEViolations), "EPEviol")
	b.ReportMetric(rep.PVBandNM2, "PVB-nm2")
	b.ReportMetric(rep.Score, "score")
}

// --- Table 2 / Table 3: one benchmark per method over the suite ---------
//
// Table 2's quality columns are the reported EPEviol/PVB-nm2/score metrics;
// Table 3's runtime column is the benchmark's ns/op.

func benchmarkMethodSuite(b *testing.B, methodIdx int, cases []string) {
	s := benchSetup(b)
	m := Methods()[methodIdx]
	for i := 0; i < b.N; i++ {
		var epe, pvb, score float64
		for _, name := range cases {
			rr, err := s.Run(m, benchLayout(b, name))
			if err != nil {
				b.Fatal(err)
			}
			epe += float64(rr.Report.EPEViolations)
			pvb += rr.Report.PVBandNM2
			score += rr.Report.Score
		}
		b.ReportMetric(epe, "EPEviol")
		b.ReportMetric(pvb, "PVB-nm2")
		b.ReportMetric(score, "score")
	}
}

// Representative three-case subset (sparse, dense, 2-D) keeps each method
// benchmark under a minute; run cmd/experiments for all ten.
var table2Cases = []string{"B2", "B4", "B8"}

func BenchmarkTable2RuleBased(b *testing.B)   { benchmarkMethodSuite(b, 0, table2Cases) }
func BenchmarkTable2ModelBased(b *testing.B)  { benchmarkMethodSuite(b, 1, table2Cases) }
func BenchmarkTable2PlainILT(b *testing.B)    { benchmarkMethodSuite(b, 2, table2Cases) }
func BenchmarkTable2MOSAICFast(b *testing.B)  { benchmarkMethodSuite(b, 3, table2Cases) }
func BenchmarkTable2MOSAICExact(b *testing.B) { benchmarkMethodSuite(b, 4, table2Cases) }

// Table 3 is the ns/op of the optimization alone (no evaluation), the
// paper's runtime comparison.
func benchmarkRuntime(b *testing.B, mode Mode) {
	s := benchSetup(b)
	layout := benchLayout(b, "B4")
	cfg := DefaultConfig(mode)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Optimize(cfg, layout); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3RuntimeFast(b *testing.B)  { benchmarkRuntime(b, ModeFast) }
func BenchmarkTable3RuntimeExact(b *testing.B) { benchmarkRuntime(b, ModeExact) }

// BenchmarkClipOperation is an in-process copy of the repo benchmark's
// clips_fast / clips_exact operation: one op is one B-suite clip, B1 to B10
// in turn, optimized untiled through OptimizeLayout with the paper's
// configuration and scored with Evaluate, at 128 px / 8 nm. OptimizeLayout
// runs the clip as one window under a compute-pool reservation, as the
// benchmark's op does; Table3Runtime* call Optimize, which takes none, so a
// -cpu 1,2 profile of them sees another pool than this op.
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

// --- Fig. 2: sigmoid resist curve ---------------------------------------

func BenchmarkFig2Sigmoid(b *testing.B) {
	rm := resist.Model{Threshold: 0.5, ThetaZ: 50}
	img := grid.New(benchGrid, benchGrid)
	for i := range img.Data {
		img.Data[i] = float64(i) / float64(len(img.Data))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rm.PrintSigmoid(img, 1)
	}
}

// --- Fig. 3: EPE sampling and measurement -------------------------------

func BenchmarkFig3EPEMeasurement(b *testing.B) {
	s := benchSetup(b)
	layout := benchLayout(b, "B5")
	mask := layout.Rasterize(benchGrid, s.Sim.Cfg.PixelNM)
	aerial, err := s.Sim.Aerial(mask, sim.Nominal())
	if err != nil {
		b.Fatal(err)
	}
	samples := layout.SamplePoints(s.Params.EPESampleNM)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := metrics.MeasureEPE(aerial, 1, s.Sim.Resist.Threshold, s.Sim.Cfg.PixelNM, samples, s.Params)
		if len(res) != len(samples) {
			b.Fatal("sample count mismatch")
		}
	}
}

// --- Fig. 4: PV band construction ---------------------------------------

func BenchmarkFig4PVBand(b *testing.B) {
	s := benchSetup(b)
	layout := benchLayout(b, "B4")
	mask := layout.Rasterize(benchGrid, s.Sim.Cfg.PixelNM)
	corners := sim.ProcessCorners(s.Params.DefocusNM, s.Params.DoseDelta)
	printed := make([]*grid.Field, len(corners))
	for i, c := range corners {
		aerial, err := s.Sim.Aerial(mask, c)
		if err != nil {
			b.Fatal(err)
		}
		printed[i] = s.Sim.PrintHard(aerial, c)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, area := metrics.PVBand(printed, s.Sim.Cfg.PixelNM)
		if area <= 0 {
			b.Fatal("no band")
		}
	}
}

// --- Fig. 5: full MOSAIC_exact runs on the showcase clips ---------------

func BenchmarkFig5ShowcaseB4(b *testing.B) { benchmarkShowcase(b, "B4") }
func BenchmarkFig5ShowcaseB6(b *testing.B) { benchmarkShowcase(b, "B6") }

func benchmarkShowcase(b *testing.B, name string) {
	s := benchSetup(b)
	layout := benchLayout(b, name)
	for i := 0; i < b.N; i++ {
		res, err := s.OptimizeExact(layout)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := s.Evaluate(res.Mask, layout, res.RuntimeSec)
		if err != nil {
			b.Fatal(err)
		}
		reportQuality(b, rep)
	}
}

// --- Fig. 6: convergence tracking ----------------------------------------

func BenchmarkFig6Convergence(b *testing.B) {
	s := benchSetup(b)
	layout := benchLayout(b, "B4")
	cfg := DefaultConfig(ModeExact)
	cfg.TrackMetrics = true
	for i := 0; i < b.N; i++ {
		res, err := s.Optimize(cfg, layout)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.History) == 0 {
			b.Fatal("no history")
		}
		last := res.History[len(res.History)-1]
		b.ReportMetric(float64(last.EPEViolations), "finalEPE")
		b.ReportMetric(last.PVBandNM2, "finalPVB")
	}
}

// --- Ablations (DESIGN.md Sec. 5) ----------------------------------------

func benchmarkAblation(b *testing.B, mutate func(*Config)) {
	s := benchSetup(b)
	layout := benchLayout(b, "B4")
	cfg := DefaultConfig(ModeFast)
	mutate(&cfg)
	for i := 0; i < b.N; i++ {
		res, err := s.Optimize(cfg, layout)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := s.Evaluate(res.Mask, layout, 0)
		if err != nil {
			b.Fatal(err)
		}
		reportQuality(b, rep)
	}
}

func BenchmarkAblationGamma2(b *testing.B) { benchmarkAblation(b, func(c *Config) { c.Gamma = 2 }) }
func BenchmarkAblationGamma4(b *testing.B) { benchmarkAblation(b, func(c *Config) { c.Gamma = 4 }) }
func BenchmarkAblationGamma6(b *testing.B) { benchmarkAblation(b, func(c *Config) { c.Gamma = 6 }) }
func BenchmarkAblationCombinedKernel(b *testing.B) {
	benchmarkAblation(b, func(c *Config) { c.GradKernels = 0 }) // Eq. 21
}
func BenchmarkAblationFullKernels(b *testing.B) {
	benchmarkAblation(b, func(c *Config) { c.GradKernels = 1 << 30 })
}
func BenchmarkAblationPVB(b *testing.B) { benchmarkAblation(b, func(c *Config) { c.Beta = 0 }) }
func BenchmarkAblationSRAF(b *testing.B) {
	benchmarkAblation(b, func(c *Config) { c.SRAFInit = false })
}
func BenchmarkAblationJump(b *testing.B) { benchmarkAblation(b, func(c *Config) { c.Jumps = 0 }) }

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
	// One full gradient-descent iteration (fast mode): the unit the
	// paper's runtime scales with. Both grids cover the same 1024 nm clip,
	// hence share one imaging grid (64): the per-kernel transforms cost the
	// same on both and only the per-plane resampling and the pixel loops
	// grow with the pixel count.
	layout := benchLayout(b, "B4")
	cfg := DefaultConfig(ModeFast)
	cfg.MaxIter = 1
	cfg.Jumps = 0
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
// the per-layout cost the cache removes; hits/op and misses/op are
// reported so the archived text carries the hit rate alongside the
// timing.
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
	run := func(b *testing.B, o TileOptions) {
		res, err := s.OptimizeLayout(context.Background(), cfg, layout, o)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Tiled || len(res.Tiles) != 4 {
			b.Fatalf("expected a 4-tile run, got tiled=%v tiles=%d", res.Tiled, len(res.Tiles))
		}
	}
	b.Run("cold", func(b *testing.B) {
		var hits, misses int64
		for i := 0; i < b.N; i++ {
			store, err := OpenTileCache("", 256<<20)
			if err != nil {
				b.Fatal(err)
			}
			o := opts
			o.Cache = store
			run(b, o)
			st := store.Stats()
			hits += st.Hits
			misses += st.Misses
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
		base := store.Stats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(b, o)
		}
		st := store.Stats()
		if st.Misses != base.Misses {
			b.Fatalf("warm runs recomputed tiles: misses %d -> %d", base.Misses, st.Misses)
		}
		b.ReportMetric(float64(st.Hits-base.Hits)/float64(b.N), "hits/op")
		b.ReportMetric(0, "misses/op")
	})
}

func init() {
	// Keep the suite deterministic across -benchtime settings: verify the
	// benchmark grid divides the clip exactly.
	if 1024%benchGrid != 0 {
		panic(fmt.Sprintf("benchGrid %d must divide 1024", benchGrid))
	}
}

func BenchmarkAblationSmooth(b *testing.B) {
	benchmarkAblation(b, func(c *Config) { c.SmoothWeight = 8 })
}

func BenchmarkAblationMomentum(b *testing.B) {
	benchmarkAblation(b, func(c *Config) { c.Momentum = 0.8 })
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
	cfg.Jumps = 0

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
		b.ResetTimer()
		run(b, lib)
		if st := lib.Stats(); st.Hits == 0 {
			b.Fatalf("seeded runs never hit the library: %+v", st)
		}
	})
}
