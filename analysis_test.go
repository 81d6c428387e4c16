package mosaic

import (
	"math"
	"testing"
)

// TestSmoothedOptimizeAPI drives the mask-smoothness extension through the
// public Config.
func TestSmoothedOptimizeAPI(t *testing.T) {
	s, err := NewSetup(smallOptics())
	if err != nil {
		t.Fatal(err)
	}
	layout := smallLayout()
	cfg := DefaultConfig(ModeFast)
	cfg.MaxIter = 6
	cfg.SmoothWeight = 8
	res, err := s.Optimize(cfg, layout)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mask.Sum() == 0 {
		t.Fatal("smoothed run erased the mask")
	}
}

// TestOptimizeExactAPI covers the exact-mode facade path at small scale.
func TestOptimizeExactAPI(t *testing.T) {
	s, err := NewSetup(smallOptics())
	if err != nil {
		t.Fatal(err)
	}
	layout := smallLayout()
	res, err := s.OptimizeExact(layout)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Evaluate(res.Mask, layout, res.RuntimeSec)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(rep.Score) || rep.Score < 0 {
		t.Fatalf("bad score %g", rep.Score)
	}
}

// TestMaskGeometryRoundTrip: optimize-free check of the manufacturing
// geometry path: rasterize -> trace -> GDSII -> parse -> rasterize is the
// identity on pixel masks.
func TestMaskGeometryRoundTrip(t *testing.T) {
	layout := smallLayout()
	mask := layout.Rasterize(64, 8)
	traced := TraceMask("mask", mask, 8)
	if len(traced.Polys) == 0 {
		t.Fatal("nothing traced")
	}
	dir := t.TempDir()
	path := dir + "/mask.gds"
	if err := SaveGDS(path, traced, 2); err != nil {
		t.Fatal(err)
	}
	back, err := LoadGDS(path, traced.SizeNM)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Rasterize(64, 8).Equal(mask, 0) {
		t.Fatal("GDS round trip altered the mask")
	}
	rects := MaskRectangles(mask, 8)
	if len(rects) != 2 { // two plain bars -> two rectangles
		t.Fatalf("%d rectangles, want 2", len(rects))
	}
}
