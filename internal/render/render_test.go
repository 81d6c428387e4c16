package render

import (
	"bytes"
	"image/png"
	"os"
	"path/filepath"
	"testing"

	"mosaic/internal/grid"
)

func TestGrayMapping(t *testing.T) {
	f := grid.FromRows([][]float64{{0, 0.5, 1}})
	img := Gray(f, 0, 1)
	if img.GrayAt(0, 0).Y != 0 {
		t.Fatalf("low end %d", img.GrayAt(0, 0).Y)
	}
	if img.GrayAt(2, 0).Y != 255 {
		t.Fatalf("high end %d", img.GrayAt(2, 0).Y)
	}
	mid := img.GrayAt(1, 0).Y
	if mid < 120 || mid > 135 {
		t.Fatalf("midpoint %d", mid)
	}
	// Clamping outside [lo, hi].
	g2 := Gray(grid.FromRows([][]float64{{-5, 5}}), 0, 1)
	if g2.GrayAt(0, 0).Y != 0 || g2.GrayAt(1, 0).Y != 255 {
		t.Fatal("clamping failed")
	}
}

func TestOverlayLayers(t *testing.T) {
	target := grid.New(4, 4)
	target.Set(1, 1, 1)
	printed := grid.New(4, 4)
	printed.Set(2, 2, 1)
	band := grid.New(4, 4)
	band.Set(3, 3, 1)
	img := Overlay(target, printed, band)
	if img.RGBAAt(1, 1).R != 70 {
		t.Fatal("target fill missing")
	}
	if img.RGBAAt(2, 2).G != 200 {
		t.Fatal("printed layer missing")
	}
	if img.RGBAAt(3, 3).R != 220 {
		t.Fatal("band layer missing")
	}
	// Nil layers are fine.
	img2 := Overlay(target, nil, nil)
	if img2.Bounds().Dx() != 4 {
		t.Fatal("nil layers broke dimensions")
	}
}

func TestSavePNGAndField(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "x.png")
	f := grid.FromRows([][]float64{{0, 1}, {2, 3}})
	if err := SaveField(path, f); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := png.Decode(bytes.NewReader(b)); err != nil {
		t.Fatalf("invalid png on disk: %v", err)
	}
	// Constant field must not divide by zero.
	if err := SaveField(filepath.Join(dir, "c.png"), grid.New(4, 4)); err != nil {
		t.Fatal(err)
	}
}
