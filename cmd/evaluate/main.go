// Command evaluate scores an existing mask against a target layout with
// the contest metrics (Eq. 22): EPE violations at th_epe = 15 nm, PV band
// over the ±25 nm / ±2% process window, and shape violations.
//
// Usage:
//
//	evaluate -testcase B4 -mask out/mask.pgm
//	evaluate -layout clip.layout -mask mask.pgm -runtime 42
package main

import (
	"flag"
	"fmt"
	"log"

	"mosaic"
	"mosaic/internal/cli"
	"mosaic/internal/render"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("evaluate: ")
	testcase := flag.String("testcase", "", "built-in benchmark name (B1..B10)")
	layoutPath := flag.String("layout", "", "layout file (alternative to -testcase)")
	maskPath := flag.String("mask", "", "mask PGM to evaluate (required)")
	runtime := flag.Float64("runtime", 0, "optimization runtime in seconds to fold into the score")
	tileNM := flag.Float64("tile-nm", 0, "evaluate by tiled simulation with this core pitch in nm (for masks larger than one FFT grid)")
	haloNM := flag.Float64("halo-nm", 0, "minimum optical halo for tiled evaluation in nm (0 = lambda/NA)")
	obsFlags := cli.AddObsFlags(flag.CommandLine)
	flag.Parse()

	obsCleanup, err := obsFlags.Setup()
	if err != nil {
		log.Fatal(err)
	}
	defer obsCleanup()

	if *maskPath == "" {
		log.Fatal("-mask is required")
	}
	layout, err := cli.LoadLayoutArg(*testcase, *layoutPath)
	if err != nil {
		log.Fatal(err)
	}
	mask, err := render.LoadMask(*maskPath)
	if err != nil {
		log.Fatal(err)
	}
	if mask.W != mask.H {
		log.Fatalf("mask must be square, got %dx%d", mask.W, mask.H)
	}

	// The mask raster covers the layout: its width is the grid.
	cfg, _ := mosaic.JobOptics(mosaic.DefaultOptics(), mask.W, layout, 0)
	var rep *mosaic.Report
	if *tileNM > 0 {
		// Tiled evaluation: the mask grid need not be a valid FFT size;
		// the tile planner sizes the simulation windows. Calibrate the
		// resist on a window-scale grid.
		cfg.GridSize = 256
		setup, err := mosaic.NewSetup(cfg)
		if err != nil {
			log.Fatal(err)
		}
		rep, err = setup.EvaluateLayout(mask, layout,
			mosaic.TileOptions{TileNM: *tileNM, HaloNM: *haloNM}, *runtime)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		setup, err := mosaic.NewSetup(cfg)
		if err != nil {
			log.Fatal(err)
		}
		rep, err = setup.Evaluate(mask, layout, *runtime)
		if err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("testcase:       %s\n", layout.Name)
	fmt.Printf("EPE violations: %d / %d samples\n", rep.EPEViolations, len(rep.EPEResults))
	fmt.Printf("PV band:        %.0f nm^2\n", rep.PVBandNM2)
	fmt.Printf("shape viol.:    %d\n", rep.ShapeViolations)
	fmt.Printf("runtime:        %.1f s\n", rep.RuntimeSec)
	fmt.Printf("score:          %.0f\n", rep.Score)
}
