package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mosaic"
	"mosaic/internal/render"
)

// TestScoresAsTheRunScored: a mask written by a run scores in evaluate
// exactly as the run's own EvaluateLayout scored it, sharded or not. With
// the resist calibrated on a fixed 256-px grid, the sharded B4 mask below
// (cmd/mosaic -testcase B4 -grid 64 -tile-nm 512 -iter 4) scored a PV band
// of 8064 nm² against the run's 1024.
func TestScoresAsTheRunScored(t *testing.T) {
	if testing.Short() {
		t.Skip("optimizes a clip; skipped in -short mode")
	}
	layout, err := mosaic.Benchmark("B4")
	if err != nil {
		t.Fatal(err)
	}
	for _, topts := range []mosaic.TileOptions{{TileNM: 512}, {}} {
		optics, _ := mosaic.JobOptics(mosaic.DefaultOptics(), 64, layout, topts.TileNM)
		setup, err := mosaic.NewSetup(optics)
		if err != nil {
			t.Fatal(err)
		}
		cfg := mosaic.DefaultConfig(mosaic.ModeFast)
		cfg.MaxIter = 4
		res, err := setup.OptimizeLayout(context.Background(), cfg, layout, topts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := setup.EvaluateLayout(res.Mask, layout, topts, 0)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "mask.pgm")
		if err := render.SavePGM(path, res.Mask); err != nil {
			t.Fatal(err)
		}
		mask, err := render.LoadMask(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := evaluate(layout, mask, topts, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("tile-nm %g: evaluate scored EPE %d, PV band %.0f nm², score %.0f; the run scored %d, %.0f nm², %.0f",
				topts.TileNM, got.EPEViolations, got.PVBandNM2, got.Score, want.EPEViolations, want.PVBandNM2, want.Score)
		}
	}
}

// TestScoresTheTargetWithoutAMask: without -mask, evaluate reports exactly
// what Setup.EvaluateLayout reports for the layout's rasterized target on
// the default optics — lithography without OPC — and -out writes the
// report's four images.
func TestScoresTheTargetWithoutAMask(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a 512 px clip at every corner; skipped in -short mode")
	}
	out := filepath.Join(t.TempDir(), "out")
	fs := flag.NewFlagSet("evaluate", flag.ContinueOnError)
	o := defineFlags(fs)
	if err := fs.Parse([]string{"-testcase", "B1", "-out", out}); err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	got, err := o.run(&stdout)
	if err != nil {
		t.Fatal(err)
	}

	layout, err := mosaic.Benchmark("B1")
	if err != nil {
		t.Fatal(err)
	}
	optics, _ := mosaic.JobOptics(mosaic.DefaultOptics(), 0, layout, 0)
	setup, err := mosaic.NewSetup(optics)
	if err != nil {
		t.Fatal(err)
	}
	want, err := setup.EvaluateLayout(layout.Rasterize(optics.GridSize, optics.PixelNM), layout, mosaic.TileOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("evaluate scored EPE %d, PV band %.0f nm², score %.0f; EvaluateLayout on the target %d, %.0f nm², %.0f",
			got.EPEViolations, got.PVBandNM2, got.Score, want.EPEViolations, want.PVBandNM2, want.Score)
	}
	for _, name := range []string{"aerial_nominal.png", "printed_nominal.png", "pvband.png", "overlay.png"} {
		if fi, err := os.Stat(filepath.Join(out, name)); err != nil || fi.Size() == 0 {
			t.Errorf("-out wrote no %s: %v", name, err)
		}
	}
	if !bytes.Contains(stdout.Bytes(), []byte("score:")) {
		t.Errorf("no score printed:\n%s", stdout.String())
	}
}
