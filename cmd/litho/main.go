// Command litho runs the forward lithography simulator (Fig. 1 of the
// paper): it images a mask through the 193 nm partially coherent optical
// model, applies the resist threshold at every process corner, and writes
// the aerial image, printed patterns and PV band.
//
// The mask is either a PGM file (-mask) or, by default, the rasterized
// target of a layout (-testcase or -layout) — i.e. lithography without any
// OPC.
//
// Usage:
//
//	litho -testcase B4 -out out/
//	litho -layout clip.layout -mask opcmask.pgm -out out/
package main

import (
	"flag"
	"fmt"
	"log"
	"path/filepath"

	"mosaic"
	"mosaic/internal/cli"
	"mosaic/internal/grid"
	"mosaic/internal/metrics"
	"mosaic/internal/render"
	"mosaic/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("litho: ")
	testcase := flag.String("testcase", "", "built-in benchmark name (B1..B10)")
	layoutPath := flag.String("layout", "", "layout file (alternative to -testcase)")
	maskPath := flag.String("mask", "", "mask PGM; defaults to the rasterized target")
	gridSize := flag.Int("grid", 512, "simulation grid size (power of two)")
	out := flag.String("out", "litho-out", "output directory")
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
	cfg, _ := mosaic.JobOptics(mosaic.DefaultOptics(), *gridSize, layout, 0)
	setup, err := mosaic.NewSetup(cfg)
	if err != nil {
		log.Fatal(err)
	}

	var mask *grid.Field
	if *maskPath != "" {
		mask, err = render.LoadMask(*maskPath)
		if err != nil {
			log.Fatal(err)
		}
		if mask.W != *gridSize || mask.H != *gridSize {
			log.Fatalf("mask is %dx%d but grid is %d", mask.W, mask.H, *gridSize)
		}
	} else {
		mask = layout.Rasterize(*gridSize, cfg.PixelNM)
	}

	params := mosaic.DefaultEvalParams()
	corners := sim.ProcessCorners(params.DefocusNM, params.DoseDelta)
	printed := make([]*grid.Field, len(corners))
	// Corners of one focus plane share the aerial image; only the print
	// (dose) differs.
	for _, g := range sim.FocusGroups(corners) {
		aerial, err := setup.Sim.Aerial(mask, g.Lead)
		if err != nil {
			log.Fatal(err)
		}
		for _, i := range g.Members {
			c := corners[i]
			printed[i] = setup.Sim.PrintHard(aerial, c)
			if err := render.SaveField(filepath.Join(*out, "aerial_"+c.Name+".png"), aerial); err != nil {
				log.Fatal(err)
			}
			if err := render.SaveField(filepath.Join(*out, "printed_"+c.Name+".png"), printed[i]); err != nil {
				log.Fatal(err)
			}
		}
	}
	band, area := metrics.PVBand(printed, cfg.PixelNM)
	if err := render.SaveField(filepath.Join(*out, "pvband.png"), band); err != nil {
		log.Fatal(err)
	}
	target := layout.Rasterize(*gridSize, cfg.PixelNM)
	if err := render.SavePNG(filepath.Join(*out, "overlay.png"), render.Overlay(target, printed[0], band)); err != nil {
		log.Fatal(err)
	}

	rep, err := setup.Evaluate(mask, layout, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("testcase %s  grid %d (%.3g nm/px)  threshold %.4f\n",
		layout.Name, *gridSize, cfg.PixelNM, setup.Sim.Resist.Threshold)
	fmt.Printf("EPE violations: %d / %d samples\n", rep.EPEViolations, len(rep.EPEResults))
	fmt.Printf("PV band:        %.0f nm^2 (%.0f rendered)\n", rep.PVBandNM2, area)
	fmt.Printf("shape viol.:    %d\n", rep.ShapeViolations)
	fmt.Printf("score:          %.0f\n", rep.Score)
	fmt.Printf("images written to %s\n", *out)
}
