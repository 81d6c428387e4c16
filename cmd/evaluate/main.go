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
	"math"

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
	tileNM := flag.Float64("tile-nm", 0, "core tile pitch in nm of the run that made the mask (evaluates by tiled simulation when it shards the layout)")
	haloNM := flag.Float64("halo-nm", 0, "minimum optical halo in nm of the run that made the mask (0 = lambda/NA)")
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
	rep, err := evaluate(layout, mask, mosaic.TileOptions{TileNM: *tileNM, HaloNM: *haloNM}, *runtime)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("testcase:       %s\n", layout.Name)
	fmt.Printf("EPE violations: %d / %d samples\n", rep.EPEViolations, len(rep.EPEResults))
	fmt.Printf("PV band:        %.0f nm^2\n", rep.PVBandNM2)
	fmt.Printf("shape viol.:    %d\n", rep.ShapeViolations)
	fmt.Printf("runtime:        %.1f s\n", rep.RuntimeSec)
	fmt.Printf("score:          %.0f\n", rep.Score)
}

// evaluate scores mask against layout on the optics maskOptics derives, so
// a mask written by cmd/mosaic with the same -tile-nm / -halo-nm is scored
// as the run that made it scored it. EvaluateLayout refuses a mask that
// does not cover the layout on both axes.
func evaluate(layout *mosaic.Layout, mask *mosaic.Field, opts mosaic.TileOptions, runtimeSec float64) (*mosaic.Report, error) {
	setup, err := mosaic.NewSetup(maskOptics(layout, mask.W, opts.TileNM))
	if err != nil {
		return nil, err
	}
	return setup.EvaluateLayout(mask, layout, opts, runtimeSec)
}

// maskOptics returns the imaging configuration of the run that produced a
// mask of maskPx pixels a side over layout, as cmd/mosaic derives it
// (mosaic.JobOptics): the mask's pixel size on a grid covering one core
// tile when tileNM shards the layout, the whole layout otherwise. The
// resist threshold is calibrated on that grid and depends on its extent,
// so any other grid scores the mask with a resist the run never used.
func maskOptics(layout *mosaic.Layout, maskPx int, tileNM float64) mosaic.OpticsConfig {
	cfg, sharded := mosaic.JobOptics(mosaic.DefaultOptics(), maskPx, layout, tileNM)
	if sharded {
		px := layout.SizeNM / float64(maskPx)
		cfg, _ = mosaic.JobOptics(mosaic.DefaultOptics(), int(math.Round(tileNM/px)), layout, tileNM)
	}
	return cfg
}
