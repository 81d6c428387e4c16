// Package cli holds small helpers shared by the command-line tools.
package cli

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"mosaic/internal/bench"
	"mosaic/internal/gds"
	"mosaic/internal/geom"
	"mosaic/internal/grid"
	"mosaic/internal/metrics"
	"mosaic/internal/render"
)

// LoadLayoutArg resolves the -testcase / -layout flag pair every tool
// accepts: exactly one must be set; testcase names a built-in benchmark,
// path a layout file — the text format by default, GDSII when the path
// ends in .gds (clip size derived from the geometry, rounded up to the
// next multiple of 256 nm so standard grids divide it).
func LoadLayoutArg(testcase, path string) (*geom.Layout, error) {
	switch {
	case testcase != "" && path != "":
		return nil, fmt.Errorf("use either -testcase or -layout, not both")
	case testcase != "":
		return bench.Layout(testcase)
	case strings.HasSuffix(strings.ToLower(path), ".gds"):
		l, err := gds.Load(path, 0)
		if err != nil {
			return nil, err
		}
		l.SizeNM = 256 * math.Ceil(l.SizeNM/256)
		return l, nil
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		l, err := geom.Parse(f)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", path, err)
		}
		return l, nil
	default:
		return nil, fmt.Errorf("one of -testcase or -layout is required")
	}
}

// SaveReportImages writes the rasters of a scored mask into dir, creating
// it: the nominal aerial image and print (aerial_nominal.png,
// printed_nominal.png), the PV band (pvband.png) and the target in gray
// under the print in green and the band in red (overlay.png). target is
// the layout rasterized on the report's grid.
func SaveReportImages(dir string, target *grid.Field, rep *metrics.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, f := range []struct {
		name  string
		field *grid.Field
	}{
		{"aerial_nominal.png", rep.AerialNominal},
		{"printed_nominal.png", rep.PrintedNominal},
		{"pvband.png", rep.PVBand},
	} {
		if err := render.SaveField(filepath.Join(dir, f.name), f.field); err != nil {
			return err
		}
	}
	return render.SavePNG(filepath.Join(dir, "overlay.png"), render.Overlay(target, rep.PrintedNominal, rep.PVBand))
}
