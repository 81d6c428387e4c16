// Command mosaic runs MOSAIC mask optimization (or one of the baseline OPC
// engines) on a layout clip and reports the contest metrics of the result.
//
// Usage:
//
//	mosaic -testcase B4 -mode exact -out out/
//	mosaic -layout clip.layout -mode fast -grid 512
//	mosaic -testcase B1 -method modelbased
//
// Outputs: the optimized mask (PGM + PNG + GDSII), the nominal aerial and
// printed images, the PV band, a target/printed/band overlay, and a
// per-iteration convergence CSV when -converge is set.
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
// tiles, no stores, no output files — and would silently
// ignore them.
var pipelineFlags = []string{
	"mode", "iter", "converge", "tile-nm", "tile-workers",
	"cache-dir", "cache-mem", "warm-lib", "artifact-dir", "out",
}

// options is every mosaic flag destination.
type options struct {
	testcase, layoutPath, mode, method, out string
	grid, iter, tileWorkers                 int
	tileNM                                  float64
	converge                                bool
	stores                                  *cli.StoreFlags
	obs                                     *cli.ObsFlags
}

func defineFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.testcase, "testcase", "", "built-in benchmark name (B1..B10)")
	fs.StringVar(&o.layoutPath, "layout", "", "layout file (alternative to -testcase)")
	fs.StringVar(&o.mode, "mode", "fast", "MOSAIC mode: fast or exact")
	fs.StringVar(&o.method, "method", "", "run a baseline instead: rulebased, modelbased, plainilt")
	fs.IntVar(&o.grid, "grid", 512, "simulation grid size (power of two); with -tile-nm it sets the core tile resolution")
	fs.IntVar(&o.iter, "iter", 0, "override max iterations (0 = paper default)")
	fs.BoolVar(&o.converge, "converge", false, "score every iterate's mask after the run and write converge.csv")
	fs.Float64Var(&o.tileNM, "tile-nm", 0, "shard the layout into core tiles of this pitch in nm (0 = untiled)")
	fs.IntVar(&o.tileWorkers, "tile-workers", 0, "core-reservation hint: concurrent tile optimizations, bounded by the compute pool (0 = pool capacity)")
	fs.StringVar(&o.out, "out", "mosaic-out", "output directory")
	o.stores = cli.AddStoreFlags(fs, 0) // memory tier off unless asked for: one-shot runs mostly benefit via -cache-dir
	o.obs = cli.AddObsFlags(fs)
	return o
}

// run is a command line that passed admission: what to optimize, at which
// optics, under which configuration.
type run struct {
	layout *mosaic.Layout
	optics mosaic.OpticsConfig
	cfg    mosaic.Config
	topts  mosaic.TileOptions
}

// admit turns the parsed flags into a run, or into the typed error of the
// first thing that could not be honoured — before any kernel is built or
// directory created. The command's own rules are here (a -method baseline
// reads no pipeline flag, a sharded or disk-cached run writes no
// converge.csv); every rule about the numbers is mosaic.Admit's. set holds
// the names of the flags the command line gave.
func (o *options) admit(set map[string]bool) (*run, error) {
	layout, err := cli.LoadLayoutArg(o.testcase, o.layoutPath)
	if err != nil {
		return nil, err
	}
	if o.method != "" {
		for _, name := range pipelineFlags {
			if set[name] {
				return nil, &mosaic.ConfigError{Field: name, Reason: fmt.Sprintf("a -method %s baseline does not read it; drop -method or -%s", o.method, name)}
			}
		}
	}
	// Under a -tile-nm that shards the layout, -grid sets the resolution of
	// one core tile; the padded optimization windows are sized by the tile
	// planner.
	optics, tiled := mosaic.JobOptics(mosaic.DefaultOptics(), o.grid, layout, o.tileNM)
	if o.converge && tiled {
		return nil, &mosaic.ConfigError{Field: "converge", Reason: "a sharded run has one convergence history per tile and writes no converge.csv; drop -converge or -tile-nm"}
	}
	if o.converge && o.stores.CacheDir != "" {
		return nil, &mosaic.ConfigError{Field: "converge", Reason: "a window served from the disk cache runs no iteration and would write an empty converge.csv; drop -converge or -cache-dir"}
	}
	mode, err := mosaic.ParseMode(strings.ToLower(o.mode))
	if err != nil {
		return nil, err
	}
	cfg := mosaic.DefaultConfig(mode)
	if o.iter != 0 {
		cfg.MaxIter = o.iter
	}
	topts := mosaic.TileOptions{TileNM: o.tileNM, Workers: o.tileWorkers}
	if err := mosaic.Admit(mosaic.DefaultOptics(), o.grid, layout, cfg, topts); err != nil {
		return nil, err
	}
	return &run{layout: layout, optics: optics, cfg: cfg, topts: topts}, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("mosaic: ")
	o := defineFlags(flag.CommandLine)
	flag.Parse()

	obsCleanup, err := o.obs.Setup()
	if err != nil {
		log.Fatal(err)
	}
	defer obsCleanup()

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	r, err := o.admit(set)
	if err != nil {
		log.Fatal(err)
	}
	layout, optics, optCfg, topts := r.layout, r.optics, r.cfg, r.topts
	setup, err := mosaic.NewSetup(optics)
	if err != nil {
		log.Fatal(err)
	}
	if o.method != "" {
		runBaseline(setup, layout, o.method)
		return
	}

	// Every run checks the tile-result cache before optimizing a window
	// (with -cache-dir a later run of the same, or an overlapping, layout
	// serves its repeated cells from disk), seeds each window from the
	// nearest previously converged pattern under -warm-lib (and harvests
	// it back), and with -artifact-dir commits its results as a Merkle-
	// anchored provenance record: re-running the same inputs anchors the
	// same digests, so two runs can attest equality by comparing them.
	stores, err := o.stores.Open()
	if err != nil {
		log.Fatal(err)
	}
	defer stores.Close()
	topts.Cache, topts.WarmStart, topts.Artifact = stores.Cache, stores.WarmStart, stores.Artifact

	// Stream convergence so long runs are not silent: one line per
	// iteration at the default (info) log level. Under -converge each
	// iterate's lent mask is also cloned, to be scored after the run.
	runStart := time.Now()
	var iters []mosaic.IterStats
	optCfg.OnIter = func(st mosaic.IterStats) {
		if o.converge {
			st.MaskGray = st.MaskGray.Clone()
			iters = append(iters, st)
		}
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

	ctx := context.Background()
	res, err := setup.OptimizeLayout(ctx, optCfg, layout, topts)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := setup.EvaluateLayoutCtx(ctx, res.Mask, layout, topts, res.RuntimeSec)
	if err != nil {
		log.Fatal(err)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		log.Fatal(err)
	}
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	must(render.SavePGM(filepath.Join(o.out, "mask.pgm"), res.Mask))
	must(render.SaveField(filepath.Join(o.out, "mask.png"), res.Mask))
	// The mask as manufacturing geometry: vectorized polygons in GDSII.
	traced := mosaic.TraceMask(layout.Name+"_mask", res.Mask, optics.PixelNM)
	must(mosaic.SaveGDS(filepath.Join(o.out, "mask.gds"), traced, 1))
	shots := len(mosaic.MaskRectangles(res.Mask, optics.PixelNM))
	must(cli.SaveReportImages(o.out, layout.Rasterize(res.Mask.W, optics.PixelNM), rep))

	if o.converge {
		f, err := os.Create(filepath.Join(o.out, "converge.csv"))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintln(f, "iter,objective,f_target,f_pvb,grad_rms,epe,pvband_nm2,score")
		for _, st := range iters {
			r, err := setup.EvaluateCtx(ctx, st.MaskGray.Threshold(0.5), layout, 0)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Fprintf(f, "%d,%g,%g,%g,%g,%d,%g,%g\n",
				st.Iter, st.Objective, st.FTarget, st.FPvb, st.GradRMS,
				r.EPEViolations, r.PVBandNM2, r.Score)
		}
		must(f.Close())
	}

	fmt.Printf("%s on %s: %d iterations in %.1fs\n",
		optCfg.Mode, layout.Name, res.Iterations, res.RuntimeSec)
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
	fmt.Printf("outputs in %s\n", o.out)
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
