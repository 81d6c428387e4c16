// Package render exports masks, aerial images, printed contours and PV
// bands as grayscale or composite PNG images — the artifacts shown in
// Fig. 5 of the paper (target / OPC mask / nominal image / PV band).
package render

import (
	"fmt"
	"image"
	"image/color"
	"image/png"
	"os"
	"path/filepath"

	"mosaic/internal/grid"
)

// Gray converts a field to an 8-bit grayscale image, mapping [lo, hi] to
// [0, 255] with clamping.
func Gray(f *grid.Field, lo, hi float64) *image.Gray {
	img := image.NewGray(image.Rect(0, 0, f.W, f.H))
	scale := 0.0
	if hi > lo {
		scale = 255 / (hi - lo)
	}
	for y := 0; y < f.H; y++ {
		for x := 0; x < f.W; x++ {
			v := (f.At(x, y) - lo) * scale
			if v < 0 {
				v = 0
			} else if v > 255 {
				v = 255
			}
			img.SetGray(x, y, color.Gray{Y: uint8(v)})
		}
	}
	return img
}

// Overlay composes an evaluation picture: target feature fill (dark gray),
// printed contour (green), PV band (red). Any layer may be nil.
func Overlay(target, printed, pvband *grid.Field) *image.RGBA {
	var w, h int
	for _, f := range []*grid.Field{target, printed, pvband} {
		if f != nil {
			w, h = f.W, f.H
			break
		}
	}
	img := image.NewRGBA(image.Rect(0, 0, w, h))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			c := color.RGBA{R: 8, G: 8, B: 12, A: 255}
			if target != nil && target.At(x, y) > 0 {
				c = color.RGBA{R: 70, G: 70, B: 80, A: 255}
			}
			if printed != nil && printed.At(x, y) > 0 {
				c.G = 200
			}
			if pvband != nil && pvband.At(x, y) > 0 {
				c.R = 220
				c.B = 40
			}
			img.Set(x, y, c)
		}
	}
	return img
}

// SavePNG writes img to path, creating parent directories as needed.
func SavePNG(path string, img image.Image) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("render: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("render: %w", err)
	}
	if err := png.Encode(f, img); err != nil {
		f.Close()
		return fmt.Errorf("render: encoding %s: %w", path, err)
	}
	return f.Close()
}

// SaveField is shorthand for saving a field as a full-range grayscale PNG.
func SaveField(path string, f *grid.Field) error {
	lo, hi := f.MinMax()
	if hi == lo {
		hi = lo + 1
	}
	return SavePNG(path, Gray(f, lo, hi))
}
