package mosaic

import (
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"mosaic/internal/cli"
)

// TestIntegrationPipeline runs the full pipeline — kernels, calibration,
// SRAF seeding, both MOSAIC modes, baselines and evaluation — on one
// benchmark clip at a reduced grid, asserting the paper's qualitative
// result: MOSAIC beats the conventional baselines and the exact mode is
// at least as good as fast (in total score over the clip).
func TestIntegrationPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test skipped in -short mode")
	}
	cfg := DefaultOptics()
	cfg.GridSize = 128
	cfg.PixelNM = 8
	setup, err := NewSetup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := Benchmark("B4")
	if err != nil {
		t.Fatal(err)
	}

	scores := map[string]float64{}
	for _, m := range Methods() {
		rr, err := setup.Run(m, layout)
		if err != nil {
			t.Fatal(err)
		}
		scores[m.Name()] = rr.Report.Score
		t.Logf("%-12s EPE=%3d PVB=%7.0f shape=%d score=%8.0f (%.1fs)",
			rr.Method, rr.Report.EPEViolations, rr.Report.PVBandNM2,
			rr.Report.ShapeViolations, rr.Report.Score, rr.RuntimeSec)
		if rr.Mask == nil {
			t.Fatalf("%s returned no mask", m.Name())
		}
	}
	bestBaseline := math.Min(scores["RuleBased"], math.Min(scores["ModelBased"], scores["PlainILT"]))
	if scores["MOSAIC_fast"] >= bestBaseline {
		t.Errorf("MOSAIC_fast (%.0f) does not beat the best baseline (%.0f)",
			scores["MOSAIC_fast"], bestBaseline)
	}
	if scores["MOSAIC_exact"] >= bestBaseline {
		t.Errorf("MOSAIC_exact (%.0f) does not beat the best baseline (%.0f)",
			scores["MOSAIC_exact"], bestBaseline)
	}
}

// TestIntegrationProcessWindowAnalysis runs the Bossung analysis on an
// optimized mask and checks physical sanity: CD grows with dose and the
// in-focus CD is within the EPE budget of the drawn width.
func TestIntegrationProcessWindowAnalysis(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test skipped in -short mode")
	}
	cfg := DefaultOptics()
	cfg.GridSize = 128
	cfg.PixelNM = 8
	setup, err := NewSetup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := Benchmark("B2") // 60 nm isolated line at x 482..542
	if err != nil {
		t.Fatal(err)
	}
	res, err := setup.OptimizeFast(layout)
	if err != nil {
		t.Fatal(err)
	}
	cut := Cutline{X: 512, Y: 512, Horizontal: true}
	points, err := setup.ProcessWindow(res.Mask, cut,
		[]float64{-25, 0, 25}, []float64{0.98, 1, 1.02})
	if err != nil {
		t.Fatal(err)
	}
	var cdNominal, cdUnder, cdOver float64
	for _, p := range points {
		if p.DefocusNM == 0 {
			switch p.Dose {
			case 1:
				cdNominal = p.CDNM
			case 0.98:
				cdUnder = p.CDNM
			case 1.02:
				cdOver = p.CDNM
			}
		}
	}
	if cdNominal == 0 {
		t.Fatal("optimized line does not print")
	}
	if !(cdUnder <= cdNominal && cdNominal <= cdOver) {
		t.Fatalf("CD not monotone in dose: %g %g %g", cdUnder, cdNominal, cdOver)
	}
	// 60 nm drawn, 15 nm EPE budget per edge.
	if math.Abs(cdNominal-60) > 30 {
		t.Fatalf("nominal CD %g too far from drawn 60 nm", cdNominal)
	}
	// Mask manufacturability measures are well-formed.
	c := MaskComplexity(res.Mask)
	if c.AreaPixels <= 0 || c.EdgePixels <= 0 || c.Fragments <= 0 {
		t.Fatalf("degenerate complexity: %+v", c)
	}
}

// TestSuiteStress runs MOSAIC_fast over the entire B1-B10 suite at a small
// grid, asserting that every clip optimizes without error, produces a
// binary mask, and never regresses the contest score relative to no OPC.
func TestSuiteStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	cfg := DefaultOptics()
	cfg.GridSize = 64
	cfg.PixelNM = 16
	cfg.Kernels = 6
	setup, err := NewSetup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	layouts, err := Benchmarks()
	if err != nil {
		t.Fatal(err)
	}
	for _, layout := range layouts {
		c := DefaultConfig(ModeFast)
		c.MaxIter = 8
		res, err := setup.Optimize(c, layout)
		if err != nil {
			t.Fatalf("%s: %v", layout.Name, err)
		}
		for _, v := range res.Mask.Data {
			if v != 0 && v != 1 {
				t.Fatalf("%s: non-binary mask", layout.Name)
			}
		}
		rep, err := setup.Evaluate(res.Mask, layout, 0)
		if err != nil {
			t.Fatalf("%s: %v", layout.Name, err)
		}
		target := layout.Rasterize(cfg.GridSize, cfg.PixelNM)
		rep0, err := setup.Evaluate(target, layout, 0)
		if err != nil {
			t.Fatalf("%s: %v", layout.Name, err)
		}
		if rep.Score > rep0.Score {
			t.Errorf("%s: OPC regressed the score: %.0f -> %.0f", layout.Name, rep0.Score, rep.Score)
		}
	}
}

// TestTraceFileHoldsTheRunTree: what -trace FILE leaves on every binary
// (all six go through cli.ObsFlags) is a Perfetto trace_event array with
// the hot-path timers and the run's span tree: tile.pipeline over ilt.run
// under one trace ID, and the ilt.iter instants parented to ilt.run.
func TestTraceFileHoldsTheRunTree(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	fs := flag.NewFlagSet("mosaic", flag.ContinueOnError)
	f := cli.AddObsFlags(fs)
	if err := fs.Parse([]string{"-log-level", "warn", "-trace", path}); err != nil {
		t.Fatal(err)
	}
	cleanup, err := f.Setup()
	if err != nil {
		t.Fatal(err)
	}
	c := smallOptics()
	c.Kernels = 5 // a kernel set no other test builds, so this run builds it
	s, err := NewSetup(c)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(ModeFast)
	cfg.MaxIter = 3
	if _, err := s.OptimizeLayout(context.Background(), cfg, smallLayout(), TileOptions{}); err != nil {
		t.Fatal(err)
	}
	cleanup()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var evs []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Args map[string]any `json:"args"`
	}
	if err := json.Unmarshal(raw, &evs); err != nil {
		t.Fatalf("trace file is not a JSON array: %v", err)
	}
	arg := func(i int, key string) string { s, _ := evs[i].Args[key].(string); return s }
	byName := map[string][]int{}
	parentOf := map[string]string{} // span ID -> parent span ID
	for i, ev := range evs {
		byName[ev.Name] = append(byName[ev.Name], i)
		if ev.Ph == "X" {
			parentOf[arg(i, "span_id")] = arg(i, "parent_id")
		}
	}
	for _, name := range []string{"optics.build_kernels", "ilt.iteration", "tile.pipeline", "ilt.run", "ilt.iter"} {
		if len(byName[name]) == 0 {
			t.Fatalf("trace holds no %s event", name)
		}
	}
	pipe, run := byName["tile.pipeline"][0], byName["ilt.run"][0]
	if arg(run, "trace_id") != arg(pipe, "trace_id") {
		t.Errorf("ilt.run in trace %q, tile.pipeline in %q", arg(run, "trace_id"), arg(pipe, "trace_id"))
	}
	up := arg(run, "parent_id")
	for up != "" && up != arg(pipe, "span_id") {
		up = parentOf[up]
	}
	if up == "" {
		t.Error("ilt.run does not descend from tile.pipeline")
	}
	for _, i := range byName["ilt.iter"] {
		if evs[i].Ph != "i" || arg(i, "parent_id") != arg(run, "span_id") || arg(i, "trace_id") != arg(run, "trace_id") {
			t.Errorf("ilt.iter %v is not an instant under ilt.run", evs[i].Args)
		}
	}
}
