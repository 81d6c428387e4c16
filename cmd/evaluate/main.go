// Command evaluate scores a mask against a target layout with the contest
// metrics (Eq. 22): EPE violations at th_epe = 15 nm, PV band over the
// ±25 nm / ±2% process window, and shape violations. Without -mask it
// scores the layout's rasterized target — lithography without any OPC, the
// forward pipeline of Fig. 1. With -out it writes the report's rasters:
// the nominal aerial image and print, the PV band and an overlay.
//
// Usage:
//
//	evaluate -testcase B4 -out out/
//	evaluate -testcase B4 -mask out/mask.pgm
//	evaluate -layout clip.layout -mask mask.pgm -runtime 42
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"

	"mosaic"
	"mosaic/internal/cli"
	"mosaic/internal/render"
)

// options is every evaluate flag destination.
type options struct {
	testcase, layoutPath, maskPath, out string
	runtime, tileNM                     float64
	obs                                 *cli.ObsFlags
}

func defineFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.testcase, "testcase", "", "built-in benchmark name (B1..B10)")
	fs.StringVar(&o.layoutPath, "layout", "", "layout file (alternative to -testcase)")
	fs.StringVar(&o.maskPath, "mask", "", "mask PGM to evaluate (empty = the rasterized target, i.e. no OPC)")
	fs.Float64Var(&o.runtime, "runtime", 0, "optimization runtime in seconds to fold into the score")
	fs.Float64Var(&o.tileNM, "tile-nm", 0, "core tile pitch in nm of the run that made the mask (evaluates by tiled simulation when it shards the layout)")
	fs.StringVar(&o.out, "out", "", "write the aerial, printed, PV band and overlay images into this directory (empty = none)")
	o.obs = cli.AddObsFlags(fs)
	return o
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("evaluate: ")
	o := defineFlags(flag.CommandLine)
	flag.Parse()

	obsCleanup, err := o.obs.Setup()
	if err != nil {
		log.Fatal(err)
	}
	defer obsCleanup()
	if _, err := o.run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run scores what the flags name, prints the report to w and, under -out,
// writes its rasters.
func (o *options) run(w io.Writer) (*mosaic.Report, error) {
	layout, err := cli.LoadLayoutArg(o.testcase, o.layoutPath)
	if err != nil {
		return nil, err
	}
	var mask *mosaic.Field
	if o.maskPath != "" {
		if mask, err = render.LoadMask(o.maskPath); err != nil {
			return nil, err
		}
	} else {
		mask = noOPCMask(layout, o.tileNM)
	}
	rep, err := evaluate(layout, mask, mosaic.TileOptions{TileNM: o.tileNM}, o.runtime)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "testcase:       %s\n", layout.Name)
	fmt.Fprintf(w, "EPE violations: %d / %d samples\n", rep.EPEViolations, len(rep.EPEResults))
	fmt.Fprintf(w, "PV band:        %.0f nm^2\n", rep.PVBandNM2)
	fmt.Fprintf(w, "shape viol.:    %d\n", rep.ShapeViolations)
	fmt.Fprintf(w, "runtime:        %.1f s\n", rep.RuntimeSec)
	fmt.Fprintf(w, "score:          %.0f\n", rep.Score)
	if o.out != "" {
		px := maskOptics(layout, mask.W, o.tileNM).PixelNM
		if err := cli.SaveReportImages(o.out, layout.Rasterize(mask.W, px), rep); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "images in %s\n", o.out)
	}
	return rep, nil
}

// noOPCMask is the layout's target rasterized at the pixel size of a
// cmd/mosaic run at its default -grid and the same -tile-nm: the mask of
// lithography without OPC, scored on the optics that run would use.
func noOPCMask(layout *mosaic.Layout, tileNM float64) *mosaic.Field {
	optics, _ := mosaic.JobOptics(mosaic.DefaultOptics(), 0, layout, tileNM)
	return layout.Rasterize(int(math.Round(layout.SizeNM/optics.PixelNM)), optics.PixelNM)
}

// evaluate scores mask against layout on the optics maskOptics derives, so
// a mask written by cmd/mosaic with the same -tile-nm is scored as the run
// that made it scored it. EvaluateLayout refuses a mask that does not
// cover the layout on both axes.
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
