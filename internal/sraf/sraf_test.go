package sraf

import (
	"math"
	"testing"

	"mosaic/internal/geom"
	"mosaic/internal/grid"
)

func targetWithLine(n, x0, w int) *grid.Field {
	f := grid.New(n, n)
	for y := 0; y < n; y++ {
		for x := x0; x < x0+w; x++ {
			f.Set(x, y, 1)
		}
	}
	return f
}

func TestDistanceNMBasic(t *testing.T) {
	f := grid.New(32, 32)
	f.Set(16, 16, 1)
	d := DistanceNM(f, 2)
	if d.At(16, 16) != 0 {
		t.Fatal("feature pixel has nonzero distance")
	}
	if got := d.At(18, 16); math.Abs(got-4) > 1e-9 {
		t.Fatalf("2 px straight distance = %g nm, want 4", got)
	}
	// Diagonal: chamfer approximates sqrt(2)*2px = 5.66 nm.
	if got := d.At(18, 18); math.Abs(got-2*2*math.Sqrt2) > 0.5 {
		t.Fatalf("diagonal distance %g, want ~%g", got, 2*2*math.Sqrt2)
	}
}

func TestDistanceMonotoneAway(t *testing.T) {
	f := targetWithLine(64, 30, 4)
	d := DistanceNM(f, 1)
	for x := 35; x < 60; x++ {
		if d.At(x, 32) < d.At(x-1, 32) {
			t.Fatalf("distance not monotone at x=%d", x)
		}
	}
}

func TestApplyIsolatedLineGetsSRAF(t *testing.T) {
	f := targetWithLine(256, 120, 16) // isolated 16 px line, 1 nm/px
	r := Rules{BiasNM: 2, SRAFDistNM: 30, SRAFWidthNM: 8, SRAFMinLenNM: 40}
	m := Apply(f, 1, r)
	// Original feature retained (with bias).
	if m.At(128, 128) != 1 {
		t.Fatal("feature lost")
	}
	if m.At(118, 128) != 1 {
		t.Fatal("bias not applied")
	}
	// Scatter bar in the distance band on both sides.
	foundLeft, foundRight := false, false
	for x := 0; x < 256; x++ {
		if m.At(x, 128) == 1 {
			d := float64(120 - x)
			if d >= 30 && d <= 38 {
				foundLeft = true
			}
			d2 := float64(x - 136)
			if d2 >= 30 && d2 <= 38 {
				foundRight = true
			}
		}
	}
	if !foundLeft || !foundRight {
		t.Fatalf("scatter bars missing: left=%v right=%v", foundLeft, foundRight)
	}
}

func TestApplyDenseNoSRAFBetween(t *testing.T) {
	// Two lines 40 nm apart: the 30 nm band from each can't form between
	// them (max midgap distance is 20 nm).
	n := 256
	f := grid.New(n, n)
	for y := 0; y < n; y++ {
		for x := 100; x < 116; x++ {
			f.Set(x, y, 1)
		}
		for x := 156; x < 172; x++ {
			f.Set(x, y, 1)
		}
	}
	r := Rules{BiasNM: 0, SRAFDistNM: 30, SRAFWidthNM: 8, SRAFMinLenNM: 40}
	m := Apply(f, 1, r)
	for x := 116; x < 156; x++ {
		if m.At(x, 128) != 0 {
			t.Fatalf("SRAF appeared in the dense gap at x=%d", x)
		}
	}
}

func TestApplyMinLengthFilter(t *testing.T) {
	// A tiny 4x4 feature produces only short ring fragments... actually a
	// ring around a dot is a closed loop, which is long. Use a huge MinLen
	// to force all bars to be dropped instead.
	f := grid.New(128, 128)
	for y := 60; y < 68; y++ {
		for x := 60; x < 68; x++ {
			f.Set(x, y, 1)
		}
	}
	r := Rules{BiasNM: 0, SRAFDistNM: 20, SRAFWidthNM: 4, SRAFMinLenNM: 10000}
	m := Apply(f, 1, r)
	for i, v := range m.Data {
		if v != f.Data[i] {
			t.Fatal("bars survived an impossible MinLen filter")
		}
	}
}

func TestApplySRAFsDoNotTouchFeatures(t *testing.T) {
	f := targetWithLine(256, 120, 16)
	r := DefaultRules()
	m := Apply(f, 2, r)
	// Every added pixel is either within bias of the feature or in the
	// SRAF band; nothing in between.
	d := DistanceNM(f, 2)
	for i, v := range m.Data {
		if v == 0 {
			continue
		}
		dist := d.Data[i]
		inBias := dist <= r.BiasNM
		inBand := dist >= r.SRAFDistNM && dist <= r.SRAFDistNM+r.SRAFWidthNM
		if !inBias && !inBand {
			t.Fatalf("mask pixel %d at distance %g outside bias and band", i, dist)
		}
	}
}

func TestApplyOnBenchLikeLayout(t *testing.T) {
	l := &geom.Layout{
		Name:   "two",
		SizeNM: 512,
		Polys: []geom.Polygon{
			geom.Rect{X: 100, Y: 100, W: 60, H: 300}.Polygon(),
			geom.Rect{X: 340, Y: 100, W: 60, H: 300}.Polygon(),
		},
	}
	f := l.Rasterize(256, 2)
	m := Apply(f, 2, DefaultRules())
	if m.Sum() <= f.Sum() {
		t.Fatal("rule-based OPC added nothing")
	}
}
