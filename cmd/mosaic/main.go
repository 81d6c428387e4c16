// Command mosaic runs MOSAIC mask optimization (or one of the baseline OPC
// engines) on a layout clip and reports the contest metrics of the result.
//
// Usage:
//
//	mosaic -testcase B4 -mode exact -out out/
//	mosaic -layout clip.layout -mode fast -grid 512
//	mosaic -testcase B1 -method modelbased
//
// Outputs: the optimized mask (PGM + PNG), the nominal printed image, the
// PV band, a target/printed/band overlay, and a per-iteration convergence
// CSV when -converge is set.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mosaic"
	"mosaic/internal/cli"
	"mosaic/internal/render"
)

// pipelineFlags are the flags only the MOSAIC pipeline reads. A -method
// baseline is one whole-clip pass that prints its scores — no mode, no
// tiles, no stores, no span tree, no output files — and would silently
// ignore them.
var pipelineFlags = []string{
	"mode", "iter", "converge", "tile-nm", "halo-nm", "tile-workers", "trace-perfetto",
	"cache-dir", "cache-mem", "warm-lib", "warm-max-dist", "warm-harvest", "artifact-dir", "out",
}

// checkFlags rejects, before the kernel build, the values the run would
// refuse or could not honour. tiled reports whether -tile-nm shards the
// layout into more than one window; set holds the names of the flags the
// command line gave.
func checkFlags(tileNM, haloNM float64, tileWorkers int, converge, tiled bool, method string, set map[string]bool) error {
	if method != "" {
		for _, name := range pipelineFlags {
			if set[name] {
				return &mosaic.ConfigError{Field: name, Reason: fmt.Sprintf("a -method %s baseline does not read it; drop -method or -%s", method, name)}
			}
		}
	}
	switch {
	case tileNM < 0:
		return &mosaic.ConfigError{Field: "tile-nm", Reason: fmt.Sprintf("must be >= 0 (0 = untiled), got %g", tileNM)}
	case haloNM < 0:
		return &mosaic.ConfigError{Field: "halo-nm", Reason: fmt.Sprintf("must be >= 0 (0 = lambda/NA), got %g", haloNM)}
	case tileWorkers < 0:
		return &mosaic.ConfigError{Field: "tile-workers", Reason: fmt.Sprintf("must be >= 0 (0 = compute pool capacity), got %d", tileWorkers)}
	case converge && tiled:
		return &mosaic.ConfigError{Field: "converge", Reason: "a sharded run has one convergence history per tile and writes no converge.csv; drop -converge or -tile-nm"}
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("mosaic: ")
	testcase := flag.String("testcase", "", "built-in benchmark name (B1..B10)")
	layoutPath := flag.String("layout", "", "layout file (alternative to -testcase)")
	mode := flag.String("mode", "fast", "MOSAIC mode: fast or exact")
	method := flag.String("method", "", "run a baseline instead: rulebased, modelbased, plainilt")
	gridSize := flag.Int("grid", 512, "simulation grid size (power of two); with -tile-nm it sets the core tile resolution")
	maxIter := flag.Int("iter", 0, "override max iterations (0 = paper default)")
	converge := flag.Bool("converge", false, "track full metrics per iteration (slow) and write converge.csv")
	tileNM := flag.Float64("tile-nm", 0, "shard the layout into core tiles of this pitch in nm (0 = untiled)")
	haloNM := flag.Float64("halo-nm", 0, "minimum optical halo around each tile core in nm (0 = lambda/NA)")
	tileWorkers := flag.Int("tile-workers", 0, "core-reservation hint: concurrent tile optimizations, bounded by the compute pool (0 = pool capacity)")
	out := flag.String("out", "mosaic-out", "output directory")
	tracePerfetto := flag.String("trace-perfetto", "", "write the run's span tree as Perfetto trace_event JSON to this file")
	storeFlags := cli.AddStoreFlags(flag.CommandLine, 0) // memory tier off unless asked for: one-shot runs mostly benefit via -cache-dir
	obsFlags := cli.AddObsFlags(flag.CommandLine)
	flag.Parse()

	obsCleanup, err := obsFlags.Setup()
	if err != nil {
		log.Fatal(err)
	}
	defer obsCleanup()

	layout, err := cli.LoadLayoutArg(*testcase, *layoutPath)
	if err != nil {
		log.Fatal(err)
	}
	// Under a -tile-nm that shards the layout, -grid sets the resolution of
	// one core tile; the padded optimization windows are sized by the tile
	// planner.
	cfg, tiled := mosaic.JobOptics(mosaic.DefaultOptics(), *gridSize, layout, *tileNM)
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := checkFlags(*tileNM, *haloNM, *tileWorkers, *converge, tiled, *method, set); err != nil {
		log.Fatal(err)
	}
	optMode, err := mosaic.ParseMode(strings.ToLower(*mode))
	if err != nil {
		log.Fatal(err)
	}
	setup, err := mosaic.NewSetup(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if *method != "" {
		runBaseline(setup, layout, *method)
		return
	}

	// Every run checks the tile-result cache before optimizing a window
	// (with -cache-dir a later run of the same, or an overlapping, layout
	// serves its repeated cells from disk), seeds each window from the
	// nearest previously converged pattern under -warm-lib (and harvests
	// it back), and with -artifact-dir commits its results as a Merkle-
	// anchored provenance record: re-running the same inputs anchors the
	// same digests, so two runs can attest equality by comparing them.
	stores, err := storeFlags.Open()
	if err != nil {
		log.Fatal(err)
	}
	defer stores.Close()
	topts := mosaic.TileOptions{
		TileNM: *tileNM, HaloNM: *haloNM, Workers: *tileWorkers,
		Cache: stores.Cache, WarmStart: stores.WarmStart, Artifact: stores.Artifact,
	}

	optCfg := mosaic.DefaultConfig(optMode)
	if *maxIter > 0 {
		optCfg.MaxIter = *maxIter
	}
	optCfg.TrackMetrics = *converge

	// Stream convergence so long runs are not silent: one line per
	// iteration at the default (info) log level.
	runStart := time.Now()
	optCfg.OnIter = func(st mosaic.IterStats) {
		mosaic.Logger().Info("iter",
			"iter", st.Iter,
			"objective", fmt.Sprintf("%.4g", st.Objective),
			"epe", st.ProxyEPE,
			"pvband_nm2", fmt.Sprintf("%.0f", st.ProxyPVBandNM2),
			"grad_rms", fmt.Sprintf("%.3g", st.GradRMS),
			"elapsed", time.Since(runStart).Round(time.Millisecond))
	}

	topts.OnTile = func(done, total int) {
		mosaic.Logger().Info("tile done", "done", done, "total", total,
			"elapsed", time.Since(runStart).Round(time.Millisecond))
	}

	// With -trace-perfetto the whole run is collected as one correlated
	// span tree and exported for ui.perfetto.dev.
	ctx := context.Background()
	var traceBuf *mosaic.TraceBuffer
	if *tracePerfetto != "" {
		traceBuf = mosaic.NewTraceBuffer(0)
		ctx = mosaic.WithTraceBuffer(ctx, traceBuf)
	}

	res, err := setup.OptimizeLayout(ctx, optCfg, layout, topts)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := setup.EvaluateLayoutCtx(ctx, res.Mask, layout, topts, res.RuntimeSec)
	if err != nil {
		log.Fatal(err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}
	if traceBuf != nil {
		if err := os.WriteFile(*tracePerfetto, mosaic.PerfettoTrace("mosaic", traceBuf.Events()), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("perfetto trace (%d events) written to %s\n", traceBuf.Len(), *tracePerfetto)
	}
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	must(render.SavePGM(filepath.Join(*out, "mask.pgm"), res.Mask))
	must(render.SaveField(filepath.Join(*out, "mask.png"), res.Mask))
	// The mask as manufacturing geometry: vectorized polygons in GDSII.
	traced := mosaic.TraceMask(layout.Name+"_mask", res.Mask, cfg.PixelNM)
	must(mosaic.SaveGDS(filepath.Join(*out, "mask.gds"), traced, 1))
	shots := len(mosaic.MaskRectangles(res.Mask, cfg.PixelNM))
	must(render.SaveField(filepath.Join(*out, "printed_nominal.png"), rep.PrintedNominal))
	must(render.SaveField(filepath.Join(*out, "pvband.png"), rep.PVBand))
	target := layout.Rasterize(res.Mask.W, cfg.PixelNM)
	must(render.SavePNG(filepath.Join(*out, "overlay.png"), render.Overlay(target, rep.PrintedNominal, rep.PVBand)))

	if *converge {
		f, err := os.Create(filepath.Join(*out, "converge.csv"))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintln(f, "iter,objective,f_target,f_pvb,grad_rms,epe,pvband_nm2,score")
		for _, st := range res.Tiles[0].History {
			fmt.Fprintf(f, "%d,%g,%g,%g,%g,%d,%g,%g\n",
				st.Iter, st.Objective, st.FTarget, st.FPvb, st.GradRMS,
				st.EPEViolations, st.PVBandNM2, st.Score)
		}
		must(f.Close())
	}

	iters := 0
	for _, tr := range res.Tiles {
		iters += tr.Iterations
	}
	fmt.Printf("%s on %s: %d iterations in %.1fs\n",
		optCfg.Mode, layout.Name, iters, res.RuntimeSec)
	if res.Tiled {
		fmt.Printf("tiles:          %d (%d workers, seam %.0f nm)\n",
			len(res.Tiles), res.Workers, res.SeamNM)
	}
	fmt.Printf("EPE violations: %d / %d samples\n", rep.EPEViolations, len(rep.EPEResults))
	fmt.Printf("PV band:        %.0f nm^2\n", rep.PVBandNM2)
	fmt.Printf("shape viol.:    %d\n", rep.ShapeViolations)
	fmt.Printf("score:          %.0f\n", rep.Score)
	fmt.Printf("mask geometry:  %d polygons, %d VSB rectangles\n", len(traced.Polys), shots)
	if res.Artifact != nil {
		fmt.Printf("manifest:       %s\n", res.Artifact.Manifest)
		fmt.Printf("merkle root:    %s\n", res.Artifact.Root)
	}
	fmt.Printf("outputs in %s\n", *out)
}

func runBaseline(setup *mosaic.Setup, layout *mosaic.Layout, name string) {
	var m mosaic.Method
	for _, cand := range mosaic.Methods() {
		if strings.EqualFold(cand.Name(), name) ||
			strings.EqualFold(strings.ReplaceAll(cand.Name(), "_", ""), name) {
			m = cand
			break
		}
	}
	if m == nil {
		log.Fatalf("unknown method %q (want rulebased, modelbased, plainilt, mosaic_fast, mosaic_exact)", name)
	}
	rr, err := setup.Run(m, layout)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s on %s: %.1fs\n", rr.Method, layout.Name, rr.RuntimeSec)
	fmt.Printf("EPE=%d PVB=%.0f shape=%d score=%.0f\n",
		rr.Report.EPEViolations, rr.Report.PVBandNM2, rr.Report.ShapeViolations, rr.Report.Score)
}
