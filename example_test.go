package mosaic_test

import (
	"fmt"
	"log"

	"mosaic"
)

// exampleOptics returns a reduced grid so the examples run in test time;
// production use keeps DefaultOptics' 512-pixel grid.
func exampleOptics() mosaic.OpticsConfig {
	cfg := mosaic.DefaultOptics()
	cfg.GridSize = 128
	cfg.PixelNM = 8
	return cfg
}

// Optimize a benchmark clip and evaluate it with the contest metrics.
func Example() {
	setup, err := mosaic.NewSetup(exampleOptics())
	if err != nil {
		log.Fatal(err)
	}
	layout, err := mosaic.Benchmark("B2")
	if err != nil {
		log.Fatal(err)
	}
	cfg := mosaic.DefaultConfig(mosaic.ModeFast)
	cfg.MaxIter = 10
	result, err := setup.Optimize(cfg, layout)
	if err != nil {
		log.Fatal(err)
	}
	report, err := setup.Evaluate(result.Mask, layout, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("EPE violations: %d\n", report.EPEViolations)
	fmt.Printf("shape violations: %d\n", report.ShapeViolations)
	// Output:
	// EPE violations: 0
	// shape violations: 0
}

// Build a layout programmatically, save it, and load it back.
func ExampleSaveLayout() {
	l := &mosaic.Layout{
		Name:   "custom",
		SizeNM: 1024,
		Polys: []mosaic.Polygon{
			mosaic.Rect{X: 400, Y: 300, W: 80, H: 400}.Polygon(),
		},
	}
	path := "/tmp/mosaic-example-clip.layout"
	if err := mosaic.SaveLayout(path, l); err != nil {
		log.Fatal(err)
	}
	back, err := mosaic.LoadLayout(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d polygon(s), %.0f nm^2\n", back.Name, len(back.Polys), back.TotalArea())
	// Output:
	// custom: 1 polygon(s), 32000 nm^2
}

// Vectorize a mask into manufacturing geometry and count VSB shots.
func ExampleTraceMask() {
	layout, err := mosaic.Benchmark("B3")
	if err != nil {
		log.Fatal(err)
	}
	mask := layout.Rasterize(128, 8)
	traced := mosaic.TraceMask("B3_mask", mask, 8)
	rects := mosaic.MaskRectangles(mask, 8)
	fmt.Printf("%d polygons, %d rectangles\n", len(traced.Polys), len(rects))
	// Output:
	// 2 polygons, 2 rectangles
}
